//go:build race

package service

// raceEnabled: under the race detector sync.Pool drops a quarter of
// what is put back, so pooled scratch reallocates and allocation counts
// mean nothing.
const raceEnabled = true
