//go:build race

package gateway_test

// raceEnabled: under the race detector sync.Pool drops a quarter of
// what is put back, and every allocation carries shadow state, so
// allocation counts mean nothing.
const raceEnabled = true
