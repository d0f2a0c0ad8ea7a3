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

// fillSetSeeded is fillSet with the ciphertext fixed: it stages the
// files past Put, whose crypto/rand keys make the burned bytes — and so,
// a few times in a thousand platters, a read-back verdict — differ from
// run to run. What the tests below count is then a function of the seed.
func fillSetSeeded(t *testing.T, s *Service, cfg Config) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	for i := 0; i < cfg.SetInfo; i++ {
		name := fmt.Sprintf("bulk%d", i)
		files[name] = randBytes(uint64(50+i), int(cfg.Geom.PlatterUserBytes())*3/4)
		stageRaw(s, name, files[name])
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.SetsCompleted != 1 {
		t.Fatalf("sets completed = %d, want 1", st.SetsCompleted)
	}
	return files
}

// TestRebuildReburnsScrappedReplacement: a replacement platter lost to a
// write-drive fault is scrapped like any other platter and the already
// reconstructed payloads are burned again on fresh glass. The rebuild
// used to return the injected error, leave the replacement in Writing
// and count nothing.
func TestRebuildReburnsScrappedReplacement(t *testing.T) {
	cfg := smallSetConfig()
	cfg.Faults = faults.New(1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	files := fillSetSeeded(t, s, cfg)
	old := platterOf(t, s, "acct", "bulk0")
	if err := s.FailPlatter(old); err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	first := s.nextPlatter
	s.mu.RUnlock()
	if err := cfg.Faults.ArmString("op=media.write,mode=error,count=1"); err != nil {
		t.Fatal(err)
	}
	newID, err := s.RebuildPlatter(old)
	if err != nil {
		t.Fatalf("rebuild gave up after one scrapped replacement: %v", err)
	}
	if newID != first+1 {
		t.Fatalf("replacement is platter %d, want %d (the burn after scrapped platter %d)", newID, first+1, first)
	}
	if _, ok := s.platterByID(first); ok {
		t.Fatalf("scrapped replacement %d is in the index", first)
	}
	if st := s.Stats(); st.PlattersFaulted != 1 || st.PlattersRebuilt != 1 {
		t.Fatalf("faulted %d platters and rebuilt %d, want 1 and 1", st.PlattersFaulted, st.PlattersRebuilt)
	}
	for name, want := range files {
		requireReadable(t, s, name, want)
	}
	if st := s.Stats(); st.PlatterRecovers != 0 {
		t.Fatalf("%d reads recovered through the set: the replacement is not serving", st.PlatterRecovers)
	}
}

// TestEveryPlatterIsTimedAsBurnAndVerify: set-redundancy platters go
// through the same burn and read-back as information platters, so the
// burn and verify phases must see them. They used to run inside the
// publish phase, unobserved.
func TestEveryPlatterIsTimedAsBurnAndVerify(t *testing.T) {
	cfg := smallSetConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillSetSeeded(t, s, cfg)
	st := s.Stats()
	if st.PlattersFaulted != 0 {
		t.Fatalf("quiet channel scrapped %d platters", st.PlattersFaulted)
	}
	platters := uint64(st.PlattersWritten + st.RedundancyPlatters)
	if platters != uint64(cfg.SetInfo+cfg.SetRed) {
		t.Fatalf("%d platters on glass, want %d", platters, cfg.SetInfo+cfg.SetRed)
	}
	if burns, verifies := s.om.phaseBurn.Snapshot().Count, s.om.phaseVerify.Snapshot().Count; burns != platters || verifies != platters {
		t.Fatalf("%d burn and %d verify observations for %d platters burned and read back", burns, verifies, platters)
	}
	// One payload assembly per information platter, one NC encode per set.
	if encodes := s.om.phaseEncode.Snapshot().Count; encodes != uint64(st.PlattersWritten+st.SetsCompleted) {
		t.Fatalf("%d encode observations, want %d", encodes, st.PlattersWritten+st.SetsCompleted)
	}
	if publishes := s.om.phasePublish.Snapshot().Count; publishes != uint64(cfg.SetInfo) {
		t.Fatalf("%d publish observations, want one per flush round (%d)", publishes, cfg.SetInfo)
	}
}
