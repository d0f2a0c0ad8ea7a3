package service

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"silica/internal/faults"
	"silica/internal/media"
)

func faultedService(t *testing.T, rule string) *Service {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Faults = faults.New(1)
	if err := cfg.Faults.ArmString(rule); err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScrappedBurnsAreNotNoiseStrikes: rounds lost to injected
// write-drive faults are not evidence about the channel. Three scrapped
// one-platter rounds in a row used to spend all three "channel too
// noisy" strikes and fail a flush on a healthy channel.
func TestScrappedBurnsAreNotNoiseStrikes(t *testing.T) {
	s := faultedService(t, "op=media.write,mode=error,count=3")
	data := randBytes(90, 5000)
	if _, err := s.Put("acct", "file", data); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("flush gave up on a healthy channel: %v", err)
	}
	if st := s.Stats(); st.PlattersFaulted != 3 || st.PlattersWritten != 1 {
		t.Fatalf("faulted %d platters and wrote %d, want 3 scrapped and 1 written", st.PlattersFaulted, st.PlattersWritten)
	}
	if got, err := s.Get("acct", "file"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("durable read after scrapped rounds: err=%v", err)
	}
}

// TestFlushBoundedUnderPermanentWriteFault: a write drive that faults
// every burn must end the flush with an error, not spin it, and leave
// the data staged.
func TestFlushBoundedUnderPermanentWriteFault(t *testing.T) {
	s := faultedService(t, "op=media.write,mode=error")
	data := randBytes(91, 5000)
	if _, err := s.Put("acct", "file", data); err != nil {
		t.Fatal(err)
	}
	err := s.Flush()
	if err == nil || errors.Is(err, faults.ErrInjected) {
		t.Fatalf("flush under a permanent write fault returned %v, want its own no-progress error", err)
	}
	if st := s.Stats(); st.PlattersFaulted != maxScrapRounds || st.PlattersWritten != 0 {
		t.Fatalf("faulted %d platters and wrote %d, want %d scrapped rounds and nothing written",
			st.PlattersFaulted, st.PlattersWritten, maxScrapRounds)
	}
	if got, err := s.Get("acct", "file"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("staged read after the failed flush: err=%v", err)
	}
}

// TestRedundancyPlatterVerifyVerdictIsActedOn: a set-redundancy platter
// whose read-back finds a track beyond within-track repair is scrapped
// and re-burned on fresh glass, as an information platter is. It used to
// go to Stored with the verdict discarded.
func TestRedundancyPlatterVerifyVerdictIsActedOn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = faults.New(1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One file per flush, so each flush writes one information platter
	// and the last one closes the set.
	var corrupted media.PlatterID
	var faultedBefore int
	files := map[string][]byte{}
	for i := 0; i < cfg.SetInfo; i++ {
		if i == cfg.SetInfo-1 {
			// The closing flush burns its information platter on the
			// next id and the first redundancy platter on the one after.
			// Corrupt every sector of that one as it is written: each of
			// its tracks then has more bad sectors than the
			// RedundancySectorsPerTrack within-track repair can restore.
			s.mu.RLock()
			corrupted = s.nextPlatter + 1
			s.mu.RUnlock()
			if err := cfg.Faults.ArmString(fmt.Sprintf("op=media.write,platter=%d,mode=partial", corrupted)); err != nil {
				t.Fatal(err)
			}
			faultedBefore = s.Stats().PlattersFaulted
		}
		name := fmt.Sprintf("file-%d", i)
		files[name] = randBytes(uint64(100+i), 9000)
		if _, err := s.Put("acct", name, files[name]); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.SetsCompleted != 1 || st.RedundancyPlatters != cfg.SetRed {
		t.Fatalf("set did not close: %d sets, %d redundancy platters", st.SetsCompleted, st.RedundancyPlatters)
	}
	if _, ok := s.platterByID(corrupted); ok {
		t.Fatalf("corrupted redundancy platter %d is in the index", corrupted)
	}
	s.mu.RLock()
	members := s.sets[0]
	s.mu.RUnlock()
	for _, m := range members {
		if m == corrupted {
			t.Fatalf("corrupted redundancy platter %d is a member of the set %v", corrupted, members)
		}
	}
	if rose := st.PlattersFaulted - faultedBefore; rose != 1 {
		t.Fatalf("PlattersFaulted rose by %d over the closing flush, want 1 (the corrupted redundancy platter); set %v", rose, members)
	}
	if err := s.FailPlatter(members[0]); err != nil {
		t.Fatal(err)
	}
	for name, want := range files {
		if got, err := s.Get("acct", name); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s with platter %d failed: err=%v", name, members[0], err)
		}
	}
}
