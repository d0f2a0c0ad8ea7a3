package service

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"silica/internal/faults"
	"silica/internal/media"
	"silica/internal/metadata"
	"silica/internal/repair"
	"silica/internal/voxel"
)

// smallSetConfig shrinks platters so a platter-set completes from a
// few tens of kilobytes, keeping rebuild tests fast.
func smallSetConfig() Config {
	cfg := DefaultConfig()
	cfg.Geom.TracksPerPlatter = 9 // 8 info tracks + 1 large-group red
	return cfg
}

// fillSet writes SetInfo platter-sized files, flushing each onto its
// own platter so the first platter-set completes. Returns the files.
func fillSet(t testing.TB, s *Service, cfg Config) map[string][]byte {
	t.Helper()
	platterBytes := int(cfg.Geom.PlatterUserBytes())
	files := map[string][]byte{}
	for i := 0; i < cfg.SetInfo; i++ {
		name := fmt.Sprintf("bulk%d", i)
		data := randBytes(uint64(50+i), platterBytes*3/4)
		files[name] = data
		if _, err := s.Put("acct", name, data); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.SetsCompleted != 1 {
		t.Fatalf("sets completed = %d, want 1", st.SetsCompleted)
	}
	return files
}

func platterOf(t testing.TB, s *Service, account, name string) media.PlatterID {
	t.Helper()
	v, err := s.Metadata().Get(metadata.FileKey{Account: account, Name: name})
	if err != nil {
		t.Fatal(err)
	}
	return v.Extents[0].Platter
}

func TestRebuildInfoPlatter(t *testing.T) {
	cfg := smallSetConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	files := fillSet(t, s, cfg)

	old := platterOf(t, s, "acct", "bulk0")
	if err := s.FailPlatter(old); err != nil {
		t.Fatal(err)
	}
	if s.DegradedSets() != 1 {
		t.Fatalf("degraded sets = %d, want 1", s.DegradedSets())
	}
	newID, err := s.RebuildPlatter(old)
	if err != nil {
		t.Fatal(err)
	}
	if newID == old {
		t.Fatalf("rebuild returned the old id %d", old)
	}

	// Extents now point at the replacement and reads are direct again.
	if got := platterOf(t, s, "acct", "bulk0"); got != newID {
		t.Fatalf("extents point at %d, want %d", got, newID)
	}
	before := s.Stats().PlatterRecovers
	for name, want := range files {
		got, err := s.Get("acct", name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: mismatch after rebuild", name)
		}
	}
	if after := s.Stats().PlatterRecovers; after != before {
		t.Fatalf("reads still recovering through the set (%d -> %d)", before, after)
	}

	// Registry: old retired with the full arc, replacement healthy.
	oldRec, ok := s.Health().Get(old)
	if !ok || oldRec.Health() != repair.Retired {
		t.Fatalf("old platter health = %v", oldRec.Health())
	}
	newRec, ok := s.Health().Get(newID)
	if !ok || newRec.Health() != repair.Healthy {
		t.Fatalf("new platter health missing or not healthy")
	}
	st := s.Stats()
	if st.PlattersRebuilt != 1 {
		t.Fatalf("platters rebuilt = %d", st.PlattersRebuilt)
	}
	if s.DegradedSets() != 0 {
		t.Fatalf("still degraded after rebuild: %d sets", s.DegradedSets())
	}
}

// TestRebuildInterruptedByRestartResumes: a platter a crash left
// rebuilding belongs to no process after the reopen, so the repair
// manager's Start hands it back as failed, and the rebuild loop rebuilds
// it: it ends retired, no set is degraded and every object reads back
// byte-exact. It used to stay rebuilding, skipped by the scrubber and
// never queued, with its set degraded for good.
func TestRebuildInterruptedByRestartResumes(t *testing.T) {
	cfg := smallSetConfig()
	cfg.Channel = voxel.CleanChannel()
	cfg.PersistDir = t.TempDir()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	files := fillSet(t, s, cfg)
	old := platterOf(t, s, "acct", "bulk0")
	if err := s.FailPlatter(old); err != nil {
		t.Fatal(err)
	}
	// The manager's first step of a rebuild, then the crash.
	if err := s.Health().Transition(old, repair.Rebuilding, "rebuild started"); err != nil {
		t.Fatal(err)
	}
	s = crashAndReopen(t, s, cfg)

	m := repair.NewManager(s, s.Health(), nil, repair.DefaultConfig())
	m.Start()
	defer m.Close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		rec, _ := s.Health().Get(old)
		if rec.Health() == repair.Retired && s.DegradedSets() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("platter %d is %v after the reopen, %d sets degraded", old, rec.Health(), s.DegradedSets())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for name, want := range files {
		if got, err := s.Get("acct", name); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after the resumed rebuild: err=%v, byte-exact=%v", name, err, bytes.Equal(got, want))
		}
	}
}

// TestPendingPlacementAgreesAcrossRestarts: a platter in the pending
// set has no set placement in the health registry until its set
// completes, live, after a crash and a reopen, and after a clean
// reopen. Replay used to place it in the set it would join, and
// snapshots carried that forward.
func TestPendingPlacementAgreesAcrossRestarts(t *testing.T) {
	cfg := smallSetConfig()
	cfg.Channel = voxel.CleanChannel()
	cfg.PersistDir = t.TempDir()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("acct", "lonely", randBytes(61, 3000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	id := platterOf(t, s, "acct", "lonely")
	placement := func(s *Service) string {
		for _, ph := range s.HealthSnapshot().Platters {
			if ph.Platter == id {
				return fmt.Sprintf("set=%d pos=%d redundancy=%v", ph.Set, ph.SetPos, ph.Redundancy)
			}
		}
		t.Fatalf("platter %d has no health record", id)
		return ""
	}
	live := placement(s)
	s = crashAndReopen(t, s, cfg)
	crashed := placement(s)
	if err := s.ClosePersist(); err != nil {
		t.Fatal(err)
	}
	if s, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.ClosePersist() }()
	clean := placement(s)
	if want := "set=-1 pos=0 redundancy=false"; live != want || crashed != want || clean != want {
		t.Fatalf("pending platter %d placement: live %s, after a crash %s, after a clean reopen %s; want %s",
			id, live, crashed, clean, want)
	}
}

// requireOnePlatterPerPosition fails unless the health snapshot places
// exactly the members the set index lists, one at each position of each
// completed set, and places the displaced platter old at set -1.
func requireOnePlatterPerPosition(t *testing.T, s *Service, old media.PlatterID, when string) {
	t.Helper()
	placed := map[[2]int][]media.PlatterID{}
	for _, ph := range s.HealthSnapshot().Platters {
		if ph.Platter == old && ph.Set != -1 {
			t.Errorf("%s: displaced platter %d reports set %d position %d, want set -1", when, old, ph.Set, ph.SetPos)
		}
		if ph.Set >= 0 {
			placed[[2]int{ph.Set, ph.SetPos}] = append(placed[[2]int{ph.Set, ph.SetPos}], ph.Platter)
		}
	}
	s.mu.RLock()
	want := map[[2]int][]media.PlatterID{}
	for set, members := range s.sets {
		for pos, m := range members {
			want[[2]int{set, pos}] = []media.PlatterID{m}
		}
	}
	s.mu.RUnlock()
	if !reflect.DeepEqual(placed, want) {
		t.Fatalf("%s: health report places %v, want one platter a position, as the set index lists: %v", when, placed, want)
	}
}

// TestRebuildLeavesOnePlatterPerPosition: the health report places a
// platter from the set index alone, so after a rebuild the replacement
// is the one platter at its position and the member it displaced
// reports set -1, live and after a clean reopen. The registry used to
// keep its own copy of placement, in which both stayed at the position.
func TestRebuildLeavesOnePlatterPerPosition(t *testing.T) {
	cfg := smallSetConfig()
	cfg.Channel = voxel.CleanChannel()
	cfg.PersistDir = t.TempDir()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillSet(t, s, cfg)
	old := platterOf(t, s, "acct", "bulk0")
	if err := s.FailPlatter(old); err != nil {
		t.Fatal(err)
	}
	requireOnePlatterPerPosition(t, s, -1, "before the rebuild")
	if _, err := s.RebuildPlatter(old); err != nil {
		t.Fatal(err)
	}
	requireOnePlatterPerPosition(t, s, old, "live")
	if err := s.ClosePersist(); err != nil {
		t.Fatal(err)
	}
	if s, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.ClosePersist() }()
	requireOnePlatterPerPosition(t, s, old, "after a clean reopen")
}

// TestLostRetireRecordStillRetires: a rebuilt platter's publish record
// is the whole rebuild, on replay too, so the member it displaces comes
// back retired after a crash even when the retire record behind it
// failed to append. The health counts after the reopen equal the live
// ones. The member used to come back failed, for good.
func TestLostRetireRecordStillRetires(t *testing.T) {
	cfg := smallSetConfig()
	cfg.Channel = voxel.CleanChannel()
	cfg.PersistDir = t.TempDir()
	cfg.Faults = faults.New(1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillSet(t, s, cfg)
	old := platterOf(t, s, "acct", "bulk0")
	if err := s.FailPlatter(old); err != nil {
		t.Fatal(err)
	}
	// The rebuild's first append is its publish record; the second, the
	// displaced member's retire record, fails.
	if err := cfg.Faults.ArmString("op=persist.append,mode=error,after=1,count=1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RebuildPlatter(old); err != nil {
		t.Fatal(err)
	}
	report := func(s *Service) string {
		rec, _ := s.Health().Get(old)
		return fmt.Sprintf("platter %d %v, counts %v", old, rec.Health(), s.HealthSnapshot().Counts)
	}
	live := report(s)
	s = crashAndReopen(t, s, cfg)
	want := fmt.Sprintf("platter %d retired, counts map[healthy:6 retired:1]", old)
	if got := report(s); live != want || got != want {
		t.Fatalf("live: %s; after a crash and a reopen: %s; want %s both times", live, got, want)
	}
}

func TestRebuildRedundancyPlatterRestoresProtection(t *testing.T) {
	cfg := smallSetConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	files := fillSet(t, s, cfg)

	// Find a redundancy member of set 0 and rebuild it after failure.
	var red media.PlatterID = -1
	for _, p := range s.ListPlatters() {
		if p.Set == 0 && p.Redundancy {
			red = p.ID
			break
		}
	}
	if red < 0 {
		t.Fatal("no redundancy platter in completed set")
	}
	if err := s.FailPlatter(red); err != nil {
		t.Fatal(err)
	}
	newRed, err := s.RebuildPlatter(red)
	if err != nil {
		t.Fatal(err)
	}

	// The rebuilt redundancy platter must carry correct parity: fail an
	// information member and recover its data through the set.
	info := platterOf(t, s, "acct", "bulk1")
	if err := s.FailPlatter(info); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("acct", "bulk1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, files["bulk1"]) {
		t.Fatal("set recovery through rebuilt redundancy platter mismatched")
	}
	if s.Stats().PlatterRecovers == 0 {
		t.Fatal("expected set recoveries")
	}
	if rec, ok := s.Health().Get(newRed); !ok || rec.Health() != repair.Healthy {
		t.Fatal("rebuilt redundancy platter not healthy")
	}
}

func TestRebuildWithoutCompletedSetFails(t *testing.T) {
	s := newService(t)
	if _, err := s.Put("acct", "lonely", randBytes(60, 3000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	id := platterOf(t, s, "acct", "lonely")
	if _, err := s.RebuildPlatter(id); err == nil {
		t.Fatal("rebuild without a completed set should fail")
	}
	if _, err := s.RebuildPlatter(9999); err == nil {
		t.Fatal("rebuild of unknown platter should fail")
	}
}

func TestFailRestoreRoutesThroughRegistry(t *testing.T) {
	cfg := smallSetConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillSet(t, s, cfg)
	id := platterOf(t, s, "acct", "bulk0")

	if err := s.FailPlatter(id); err != nil {
		t.Fatal(err)
	}
	rec, _ := s.Health().Get(id)
	if rec.Health() != repair.Failed {
		t.Fatalf("health after fail = %v", rec.Health())
	}
	if err := s.Health().Transition(id, repair.Healthy, "failure cleared"); err != nil {
		t.Fatal(err)
	}
	if rec.Health() != repair.Healthy {
		t.Fatalf("health after restore = %v", rec.Health())
	}
	st := s.Stats()
	if st.HealthTransitions < 2 {
		t.Fatalf("health transitions = %d, want >= 2", st.HealthTransitions)
	}
	snap := s.Health().Snapshot()
	if snap.Transitions["healthy->failed"] != 1 || snap.Transitions["failed->healthy"] != 1 {
		t.Fatalf("transition counters = %v", snap.Transitions)
	}
}

func TestDegradedReadsReportRecoveryTier(t *testing.T) {
	cfg := smallSetConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillSet(t, s, cfg)
	id := platterOf(t, s, "acct", "bulk0")
	if err := s.FailPlatter(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("acct", "bulk0"); err != nil {
		t.Fatal(err)
	}
	var ph *repair.PlatterHealth
	snap := s.Health().Snapshot()
	for i := range snap.Platters {
		if snap.Platters[i].Platter == id {
			ph = &snap.Platters[i]
		}
	}
	if ph == nil || ph.SetRecoveries == 0 {
		t.Fatalf("set-tier reads not reported to the registry: %+v", ph)
	}
}

func TestScrubPlatterReportsMargins(t *testing.T) {
	s := newService(t)
	if _, err := s.Put("acct", "file", randBytes(7, 20000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	platters := s.ListPlatters()
	if len(platters) == 0 {
		t.Fatal("no platters listed")
	}
	rep, err := s.ScrubPlatter(platters[0].ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TracksSampled == 0 || rep.SectorsSampled == 0 {
		t.Fatalf("empty scrub report: %+v", rep)
	}
	if rep.MinMargin <= 0 || rep.MinMargin > 1 || rep.MeanMargin < rep.MinMargin {
		t.Fatalf("margins: %+v", rep)
	}
	st := s.Stats()
	if st.ScrubbedSectors != rep.SectorsSampled || st.ScrubMinMargin > rep.MinMargin {
		t.Fatalf("scrub stats not recorded: %+v vs %+v", st, rep)
	}

	// A failed platter scrubs as unavailable rather than erroring.
	if err := s.FailPlatter(platters[0].ID); err != nil {
		t.Fatal(err)
	}
	rep, err = s.ScrubPlatter(platters[0].ID, 0)
	if err != nil || !rep.Unavailable {
		t.Fatalf("scrub of failed platter: %+v, %v", rep, err)
	}
}
