package service

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// TestBurnAllocations pins the write path's allocation shape: one flush
// of the benchmark's ingest round (808 sectors, four information
// platters closing one 4+2 set) into a persist directory, after a first
// round has filled every free list. Each platter is shelved on its blob
// once the blob is durable, so its track slabs go back to the service's
// free list and the next burn writes into them: the glass costs no
// allocation. Full sectors are views of the staged ciphertext; the
// within-track and large-group redundancy is encoded into the codec
// scratch free list and the set's into the slab the first round sized;
// blobs stream off the media's slabs through a window from a free list;
// the WAL reuses one frame buffer. What is left is the files' partial
// last sectors, each blob's bitmap index, read-back bookkeeping and the
// flush's records.
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
	t.Logf("one ingest-round flush: %d B allocated, %.3f B per user byte", after.TotalAlloc-before.TotalAlloc, perByte)
	// On a 2-CPU host, 30 runs each: 0.57 B/B at -cpu 1, at most 0.587
	// at -cpu 2 and 0.603 at -cpu 8; the bound is that maximum plus 10 %,
	// rounded up. Measured the same way, the flush allocated 3.93 B/B
	// (up to 5.35 at -cpu 8, as collections emptied the scratch pools)
	// while every platter's slabs stayed on the heap, 6.20–7.42 while it
	// copied every staged sector and took a fresh set-redundancy payload
	// and blob window per platter, and 10.6 before the media packed two
	// symbols a byte. With one packed form from encoder to blob and a
	// bitmap blob index, 3 runs each measured 0.490 at -cpu 1, at most
	// 0.497 at -cpu 2 and 0.517 at -cpu 8; the bound is left as it was.
	if perByte > 0.67 {
		t.Errorf("a flush allocates %.3f B per user byte, want at most 0.67", perByte)
	}
}

// TestSetCloseLeavesStagedCiphertextIntact: a flush burns views of the
// staged ciphertext rather than copies, and closeSet encodes every set's
// redundancy into one reused slab. The staged bytes must come through
// the set close unchanged, and a second close overwriting the slab must
// not reach the first set's redundancy: with one information platter of
// the first set failed, its objects read back byte-exact through that
// redundancy, in process and after a restart from the persist dir.
func TestSetCloseLeavesStagedCiphertextIntact(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PersistDir = t.TempDir()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.ClosePersist() }()
	objects := map[string][]byte{}
	// One ingest round of Puts: its ciphertext fills four information
	// platters, which close one set.
	put := func(round int) {
		for i := 0; i < roundSmall+roundLarge; i++ {
			name, size := fmt.Sprintf("r%d-s%02d", round, i), 4<<10
			if i >= roundSmall {
				name, size = fmt.Sprintf("r%d-l%02d", round, i-roundSmall), 16<<10
			}
			objects[name] = randBytes(uint64(round*1000+i), size)
			if _, err := s.Put("acct", name, objects[name]); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(0)
	staged := s.tier.NextBatch()
	want := make([][]byte, len(staged))
	for i, f := range staged {
		want[i] = bytes.Clone(f.Data)
	}
	requireStagedIntact := func(when string) {
		t.Helper()
		for i, f := range staged {
			if !bytes.Equal(f.Data, want[i]) {
				t.Fatalf("%s: the staged ciphertext of %v#%d changed", when, f.Key, f.Version)
			}
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SetsCompleted != 1 {
		t.Fatalf("the first round closed %d sets, want 1", st.SetsCompleted)
	}
	requireStagedIntact("after the first set close")
	slab := &s.setRed[0][0][0]
	put(1)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SetsCompleted != 2 {
		t.Fatalf("two rounds closed %d sets, want 2", st.SetsCompleted)
	}
	if &s.setRed[0][0][0] != slab {
		t.Fatal("the second set close did not reuse the first one's redundancy slab")
	}
	requireStagedIntact("after the second set close")

	s.mu.RLock()
	lost := s.sets[0][0]
	s.mu.RUnlock()
	if err := s.FailPlatter(lost); err != nil {
		t.Fatal(err)
	}
	readAll := func(when string) {
		t.Helper()
		for name, data := range objects {
			if got, err := s.Get("acct", name); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s: %s with platter %d failed: err=%v, byte-exact=%v", when, name, lost, err, bytes.Equal(got, data))
			}
		}
		if st := s.Stats(); st.PlatterRecovers == 0 {
			t.Fatalf("%s: no read went through set 0's redundancy", when)
		}
	}
	readAll("in process")
	if err := s.ClosePersist(); err != nil {
		t.Fatal(err)
	}
	if s, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	readAll("after a restart")
}
