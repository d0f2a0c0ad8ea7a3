package service

import (
	"runtime"
	"testing"
)

// TestBurnAllocations pins the write path's allocation shape: one flush
// of the benchmark's ingest round (808 sectors, four information
// platters closing one 4+2 set) into a persist directory. The glass is
// allocated once, two symbols a byte in per-track slabs; the within-track
// and large-group redundancy are encoded into pooled scratch; blobs
// stream off the packed media; the WAL reuses one frame buffer. What is
// left is the platters' payload caches, the set's redundancy payloads,
// read-back bookkeeping and the flush's records.
func TestBurnAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := DefaultConfig()
	cfg.PersistDir = t.TempDir()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.ClosePersist()
	// The first round fills the codec pools; the second is measured.
	stageIngestRound(s, 0)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	stageIngestRound(s, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = s.Flush()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.PlattersWritten != 8 || st.RedundancyPlatters != 4 || st.PlattersFaulted != 0 {
		t.Fatalf("two rounds burned %d information + %d redundancy platters (%d scrapped), want 8 + 4",
			st.PlattersWritten, st.RedundancyPlatters, st.PlattersFaulted)
	}
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / roundUserBytes
	t.Logf("one ingest-round flush: %d B allocated, %.2f B per user byte", after.TotalAlloc-before.TotalAlloc, perByte)
	// 6.2–6.8 B/B measured at -cpu 1, 2 and 8 on a 2-CPU host; 10.6 B/B
	// when the media held a byte per symbol in a copy per sector and every
	// redundancy encode and WAL frame had a buffer of its own.
	if perByte > 9 {
		t.Errorf("a flush allocates %.2f B per user byte, want at most 9", perByte)
	}
}
