package repair

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"silica/internal/media"
)

func TestTransitionLegality(t *testing.T) {
	reg := NewRegistry()
	reg.Register(1, "published")

	// The full lifecycle is legal edge by edge.
	steps := []Health{Suspect, Healthy, Failed, Rebuilding, Retired}
	for _, to := range steps {
		if err := reg.Transition(1, to, "step"); err != nil {
			t.Fatalf("transition to %v: %v", to, err)
		}
	}
	// Retired is terminal.
	for _, to := range []Health{Healthy, Suspect, Failed, Rebuilding} {
		if err := reg.Transition(1, to, "revive"); err == nil {
			t.Fatalf("retired -> %v should be illegal", to)
		}
	}

	reg.Register(2, "published")
	if err := reg.Transition(2, Rebuilding, "skip"); err == nil {
		t.Fatal("healthy -> rebuilding should be illegal")
	}
	if err := reg.Transition(99, Failed, "ghost"); !errors.Is(err, ErrUnknownPlatter) {
		t.Fatalf("unknown platter error = %v", err)
	}
}

func TestSameStateTransitionIsNoOp(t *testing.T) {
	reg := NewRegistry()
	reg.Register(1, "published")
	if err := reg.Transition(1, Failed, "fail"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Transition(1, Failed, "fail again"); err != nil {
		t.Fatalf("same-state transition should be a no-op, got %v", err)
	}
	snap := reg.Snapshot()
	// Birth entry + one real transition; the duplicate added nothing.
	if n := len(snap.Platters[0].History); n != 2 {
		t.Fatalf("history length = %d, want 2", n)
	}
	if reg.TransitionTotal() != 1 {
		t.Fatalf("transition total = %d, want 1", reg.TransitionTotal())
	}
}

func TestSnapshotCountsAndHistory(t *testing.T) {
	reg := NewRegistry()
	at := time.Unix(1000, 0)
	reg.now = func() time.Time { return at }
	for id := media.PlatterID(1); id <= 3; id++ {
		reg.Register(id, "published")
	}
	reg.Transition(2, Failed, "injected failure")
	reg.Transition(2, Rebuilding, "rebuild started")
	reg.Transition(2, Retired, "rebuilt as platter 4")
	reg.Register(4, "rebuilt from set 0")

	snap := reg.Snapshot()
	if snap.Counts["healthy"] != 3 || snap.Counts["retired"] != 1 {
		t.Fatalf("counts = %v", snap.Counts)
	}
	if snap.Transitions["healthy->failed"] != 1 ||
		snap.Transitions["failed->rebuilding"] != 1 ||
		snap.Transitions["rebuilding->retired"] != 1 {
		t.Fatalf("transitions = %v", snap.Transitions)
	}
	// Platters sort by id; platter 2 carries the full arc.
	var p2 *PlatterHealth
	for i := range snap.Platters {
		if snap.Platters[i].Platter == 2 {
			p2 = &snap.Platters[i]
		}
	}
	if p2 == nil {
		t.Fatal("platter 2 missing from snapshot")
	}
	// The registry keeps no placement: the service places platters.
	if p2.Set != -1 || p2.Health != "retired" {
		t.Fatalf("platter 2 = %+v", p2)
	}
	wantArc := []string{"healthy", "failed", "rebuilding", "retired"}
	if len(p2.History) != len(wantArc) {
		t.Fatalf("history = %+v", p2.History)
	}
	for i, tr := range p2.History {
		if tr.To != wantArc[i] {
			t.Fatalf("history[%d].To = %s, want %s", i, tr.To, wantArc[i])
		}
		if !tr.At.Equal(at) {
			t.Fatalf("history[%d].At = %v", i, tr.At)
		}
	}
	if !strings.Contains(p2.History[3].Reason, "rebuilt as platter 4") {
		t.Fatalf("retire reason = %q", p2.History[3].Reason)
	}
}

func TestTierReportsResetOnScrub(t *testing.T) {
	reg := NewRegistry()
	rec := reg.Register(1, "published")
	rec.ReportTier(TierSector)
	rec.ReportTier(TierTrack)
	rec.ReportTier(TierSet)
	if got := rec.reportsSinceScrub(); got != 3 {
		t.Fatalf("reports since scrub = %d", got)
	}
	reg.RecordScrub(1, ScrubReport{Platter: 1, TracksSampled: 1})
	if got := rec.reportsSinceScrub(); got != 0 {
		t.Fatalf("reports after scrub = %d", got)
	}
	// Lifetime counters survive the reset.
	snap := reg.Snapshot()
	p := snap.Platters[0]
	if p.SectorRepairs != 1 || p.TrackRebuilds != 1 || p.SetRecoveries != 1 {
		t.Fatalf("tier counters = %+v", p)
	}
	if p.Scrubs != 1 || p.LastScrub == nil {
		t.Fatalf("scrub bookkeeping = %+v", p)
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	reg := NewRegistry()
	rec := reg.Register(1, "published")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				rec.ReportTier(TierSector)
				_ = rec.Unavailable()
				reg.Transition(1, Suspect, "load")
				reg.Transition(1, Healthy, "clear")
				reg.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := rec.tierReports[TierSector].Load(); got != 8*200 {
		t.Fatalf("tier reports = %d", got)
	}
}

// fakeTarget drives the manager without a real storage service.
type fakeTarget struct {
	mu       sync.Mutex
	platters []PlatterSummary
	reports  map[media.PlatterID]ScrubReport
	rebuilt  []media.PlatterID
	nextID   media.PlatterID
	reg      *Registry
}

func (f *fakeTarget) ListPlatters() []PlatterSummary {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]PlatterSummary(nil), f.platters...)
}

func (f *fakeTarget) ScrubPlatter(id media.PlatterID, maxTracks int) (ScrubReport, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rep, ok := f.reports[id]
	if !ok {
		rep = ScrubReport{Platter: id, TracksSampled: 1, SectorsSampled: 10, MinMargin: 0.4, MeanMargin: 0.4}
	}
	return rep, nil
}

func (f *fakeTarget) RebuildPlatter(id media.PlatterID) (media.PlatterID, error) {
	f.mu.Lock()
	f.rebuilt = append(f.rebuilt, id)
	newID := f.nextID
	f.nextID++
	f.mu.Unlock()
	// Mirror the service: retire the old record at swap time.
	f.reg.Register(newID, "rebuilt")
	f.reg.Transition(id, Retired, "rebuilt")
	return newID, nil
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestManagerDetectsFailedAndRebuilds(t *testing.T) {
	reg := NewRegistry()
	ft := &fakeTarget{reports: map[media.PlatterID]ScrubReport{}, nextID: 100, reg: reg}
	for id := media.PlatterID(0); id < 3; id++ {
		reg.Register(id, "published")
		ft.platters = append(ft.platters, PlatterSummary{ID: id, Set: 0, SetPos: int(id)})
	}
	cfg := DefaultConfig()
	cfg.ScrubInterval = time.Millisecond
	m := NewManager(ft, reg, nil, cfg)
	m.Start()
	defer m.Close()

	// Inject a failure the way the service does; the scrub loop must
	// notice and drive the rebuild without further prompting.
	if err := reg.Transition(1, Failed, "injected failure"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		rec, _ := reg.Get(1)
		return rec.Health() == Retired
	})
	ft.mu.Lock()
	rebuilt := append([]media.PlatterID(nil), ft.rebuilt...)
	ft.mu.Unlock()
	if len(rebuilt) != 1 || rebuilt[0] != 1 {
		t.Fatalf("rebuilt = %v", rebuilt)
	}
	if m.Stats().RebuildsDone != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

// blockingTarget's RebuildPlatter reports that it started, then waits
// for release before doing fakeTarget's rebuild.
type blockingTarget struct {
	*fakeTarget
	started chan media.PlatterID
	release chan struct{}
}

func (b *blockingTarget) RebuildPlatter(id media.PlatterID) (media.PlatterID, error) {
	b.started <- id
	<-b.release
	return b.fakeTarget.RebuildPlatter(id)
}

// TestRequestRebuildDuringRebuildIsAccepted: an operator request for a
// platter the loop is already rebuilding is accepted (HTTP 200), and
// the platter is rebuilt exactly once. A request used to be refused as
// "rebuild already queued" (HTTP 409) until the rebuild finished.
func TestRequestRebuildDuringRebuildIsAccepted(t *testing.T) {
	reg := NewRegistry()
	ft := &fakeTarget{reports: map[media.PlatterID]ScrubReport{}, nextID: 100, reg: reg}
	for id := media.PlatterID(0); id < 3; id++ {
		reg.Register(id, "published")
		ft.platters = append(ft.platters, PlatterSummary{ID: id, Set: 0, SetPos: int(id)})
	}
	bt := &blockingTarget{fakeTarget: ft, started: make(chan media.PlatterID, 4), release: make(chan struct{})}
	cfg := DefaultConfig()
	cfg.ScrubInterval = time.Millisecond
	cfg.AutoRebuild = false
	m := NewManager(bt, reg, nil, cfg)
	m.Start()
	defer m.Close()
	var once sync.Once
	release := func() { once.Do(func() { close(bt.release) }) }
	defer release()

	if err := m.RequestRebuild(1); err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-bt.started:
		if id != 1 {
			t.Fatalf("rebuild started on platter %d, want 1", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rebuild never started")
	}
	if err := m.RequestRebuild(1); err != nil {
		t.Fatalf("request during the rebuild = %v, want nil", err)
	}
	release()
	waitFor(t, func() bool {
		rec, _ := reg.Get(1)
		return rec.Health() == Retired
	})
	time.Sleep(300 * time.Millisecond) // three rebuild ticks: none may rebuild it again
	ft.mu.Lock()
	rebuilt := append([]media.PlatterID(nil), ft.rebuilt...)
	ft.mu.Unlock()
	if len(rebuilt) != 1 || rebuilt[0] != 1 {
		t.Fatalf("rebuilt = %v, want [1]", rebuilt)
	}
	var arc []string
	for _, p := range reg.Snapshot().Platters {
		if p.Platter == 1 {
			for _, tr := range p.History {
				arc = append(arc, tr.To)
			}
		}
	}
	if want := []string{"healthy", "failed", "rebuilding", "retired"}; strings.Join(arc, " ") != strings.Join(want, " ") {
		t.Fatalf("history arc = %v, want %v", arc, want)
	}
}

// failingTarget's RebuildPlatter always fails for the platters in fail
// and is fakeTarget's rebuild for the rest.
type failingTarget struct {
	*fakeTarget
	fail map[media.PlatterID]bool
}

func (f *failingTarget) RebuildPlatter(id media.PlatterID) (media.PlatterID, error) {
	if f.fail[id] {
		return -1, errors.New("injected rebuild fault")
	}
	return f.fakeTarget.RebuildPlatter(id)
}

// TestManagerRebuildOneFailingPlatterStarvesNoOther: a platter whose
// rebuild always fails stays failed and is retried, but the loop still
// rebuilds a failed member of another set meanwhile.
func TestManagerRebuildOneFailingPlatterStarvesNoOther(t *testing.T) {
	reg := NewRegistry()
	ft := &fakeTarget{reports: map[media.PlatterID]ScrubReport{}, nextID: 100, reg: reg}
	for id := media.PlatterID(0); id < 6; id++ {
		reg.Register(id, "published")
		ft.platters = append(ft.platters, PlatterSummary{ID: id, Set: int(id) / 3, SetPos: int(id) % 3})
	}
	for _, id := range []media.PlatterID{1, 4} {
		if err := reg.Transition(id, Failed, "injected failure"); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	cfg.ScrubInterval = time.Millisecond
	m := NewManager(&failingTarget{fakeTarget: ft, fail: map[media.PlatterID]bool{1: true}}, reg, nil, cfg)
	m.Start()
	defer m.Close()

	waitFor(t, func() bool {
		rec, _ := reg.Get(4)
		return rec.Health() == Retired
	})
	waitFor(t, func() bool { return m.Stats().RebuildsFailed >= 2 })
	if rec, _ := reg.Get(1); rec.Health() != Failed && rec.Health() != Rebuilding {
		t.Fatalf("platter 1 health = %v, want failed or rebuilding", rec.Health())
	}
}

func TestManagerScrubEscalatesLowMargin(t *testing.T) {
	reg := NewRegistry()
	ft := &fakeTarget{reports: map[media.PlatterID]ScrubReport{}, nextID: 100, reg: reg}
	reg.Register(0, "published")
	ft.platters = []PlatterSummary{{ID: 0}}
	ft.reports[0] = ScrubReport{
		Platter: 0, TracksSampled: 2, SectorsSampled: 20, MinMargin: 0.01, MeanMargin: 0.2,
	}
	cfg := DefaultConfig()
	cfg.ScrubInterval = time.Millisecond
	cfg.SuspectMargin = 0.05
	m := NewManager(ft, reg, nil, cfg)
	m.Start()
	defer m.Close()
	waitFor(t, func() bool {
		rec, _ := reg.Get(0)
		return rec.Health() == Suspect
	})
	// Margins recover: the next clean scrub clears the suspicion.
	ft.mu.Lock()
	delete(ft.reports, 0)
	ft.mu.Unlock()
	waitFor(t, func() bool {
		rec, _ := reg.Get(0)
		return rec.Health() == Healthy
	})
}

func TestManagerGateBlocksScrubs(t *testing.T) {
	reg := NewRegistry()
	ft := &fakeTarget{reports: map[media.PlatterID]ScrubReport{}, nextID: 100, reg: reg}
	reg.Register(0, "published")
	ft.platters = []PlatterSummary{{ID: 0}}
	cfg := DefaultConfig()
	cfg.ScrubInterval = time.Millisecond
	m := NewManager(ft, reg, func() bool { return false }, cfg)
	m.Start()
	defer m.Close()
	waitFor(t, func() bool { return m.Stats().ScrubSkips > 5 })
	if m.Stats().Scrubs != 0 {
		t.Fatalf("scrubs ran with a closed gate: %+v", m.Stats())
	}
}

// TestRequestRebuildRejectsSetlessPlatter: an operator repair request
// for a platter outside any completed platter-set must be refused
// without touching its health — failing it would lose data that no
// redundancy can bring back — and a set-less platter that IS failed
// must not be spun through impossible rebuild attempts.
func TestRequestRebuildRejectsSetlessPlatter(t *testing.T) {
	reg := NewRegistry()
	ft := &fakeTarget{reports: map[media.PlatterID]ScrubReport{}, nextID: 100, reg: reg}
	reg.Register(0, "published")
	ft.platters = []PlatterSummary{{ID: 0, Set: -1}}
	cfg := DefaultConfig()
	cfg.ScrubInterval = time.Millisecond
	m := NewManager(ft, reg, nil, cfg)

	if err := m.RequestRebuild(0); !errors.Is(err, ErrNoRebuildSource) {
		t.Fatalf("RequestRebuild = %v, want ErrNoRebuildSource", err)
	}
	rec, _ := reg.Get(0)
	if rec.Health() != Healthy {
		t.Fatalf("health = %v after rejected request, want healthy", rec.Health())
	}

	// Even once failed, the rebuild loop must not attempt a rebuild
	// that can never succeed.
	if err := reg.Transition(0, Failed, "injected failure"); err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Close()
	// A failed, set-less platter is invisible to both the scrub sampler
	// (unavailable) and the rebuild loop; give the loops many ticks (the
	// rebuild loop's 100 ms, two of them) to prove they leave it alone.
	time.Sleep(250 * time.Millisecond)
	st := m.Stats()
	if st.RebuildsDone != 0 || st.RebuildsFailed != 0 || st.RebuildsQueued != 0 {
		t.Fatalf("impossible rebuild attempted: %+v", st)
	}
	if rec.Health() != Failed {
		t.Fatalf("health = %v, want failed (stable)", rec.Health())
	}
	if n := reg.Snapshot().Transitions["failed->rebuilding"]; n != 0 {
		t.Fatalf("failed->rebuilding churn: %d transitions", n)
	}
}
