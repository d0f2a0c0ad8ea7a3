package library

import (
	"testing"

	"silica/internal/controller"
	"silica/internal/workload"
)

func TestUtilizationNeverExceedsOne(t *testing.T) {
	cfg := smallConfig(PolicySilica, 20)
	cfg.Platters = 500
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := makeRequests(l, 2000, 0.05, 1)
	l.RunTrace(reqs, 0)
	horizon := l.Sim().Now()
	for i, d := range l.drives {
		busy := d.readSecs + d.verifySecs + d.mountSecs + d.switchSecs
		if busy > horizon*1.001 {
			t.Fatalf("drive %d busy %v > horizon %v (read=%v verify=%v mount=%v switch=%v)",
				i, busy, horizon, d.readSecs, d.verifySecs, d.mountSecs, d.switchSecs)
		}
	}
	u := l.DriveUtilization(horizon)
	if u.Utilization() > 1.001 {
		t.Fatalf("utilization = %v", u.Utilization())
	}
}

// TestUtilizationBenchRepro guards the horizon-clamping fix: a trace
// whose event queue drains before the trace window must still report
// utilization <= 1 (verification accounting runs to the horizon).
func TestUtilizationBenchRepro(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Platters = 500
	for _, verify := range []bool{true, false} {
		cfg.Verification = verify
		lib, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := workload.Generate(workload.TraceConfig{
			Profile: workload.Typical, Duration: 1800, Platters: cfg.Platters,
			TracksPerFile: workload.TracksFor(10e6), TrackBytes: 10e6,
			RateScale: 0.5, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		reqs := make([]*controller.Request, len(tr.Requests))
		copy(reqs, tr.Requests)
		lib.RunTrace(reqs, tr.CoreEnd)
		u := lib.DriveUtilization(lib.Sim().Now())
		t.Logf("verify=%v utilization=%v now=%v", verify, u.Utilization(), lib.Sim().Now())
		if u.Utilization() > 1.001 {
			t.Fatalf("verify=%v utilization=%v", verify, u.Utilization())
		}
	}
}

// TestRunTraceCompletesEveryRequest replays a generated trace and
// requires every request to complete. The default configuration has
// drives that two partitions list; freeing one must wake both, or the
// second partition's queue waits on an unrelated event and, at the end
// of a trace, forever.
func TestRunTraceCompletesEveryRequest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Platters = 200
	cfg.Seed = 1
	lib, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(workload.TraceConfig{
		Profile: workload.IOPS, Duration: 3600, Warmup: 300, Cooldown: 300,
		Platters: cfg.Platters, TracksPerFile: workload.TracksFor(10e6), TrackBytes: 10e6,
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(map[controller.RequestID]bool, len(tr.Requests))
	reqs, _ := tr.CoreRun()
	for _, r := range reqs {
		r := r
		r.Done = func(float64) { done[r.ID] = true }
	}
	lib.RunTrace(reqs, 0)
	for _, r := range reqs {
		if !done[r.ID] {
			t.Errorf("request %d (platter %d, arrival %.0fs) never completed", r.ID, r.Platter, r.Arrival)
		}
	}
	if t.Failed() {
		t.Fatalf("%d of %d requests completed", len(done), len(reqs))
	}
}
