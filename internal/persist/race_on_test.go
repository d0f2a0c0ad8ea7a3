//go:build race

package persist

// raceEnabled: under the race detector sync.Pool drops a quarter of
// what is put back, so a pooled window reallocates and allocation counts
// mean nothing.
const raceEnabled = true
