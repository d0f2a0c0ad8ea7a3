package workload

import (
	"reflect"
	"testing"

	"silica/internal/controller"
	"silica/internal/library"
	"silica/internal/tape"
)

// TestCoreRun pins the one trace-run helper: only core-interval
// requests are measured, every one of them is, the caller's trace is
// left exactly as generated, and a second run of the same trace (as
// the tape-vs-Silica comparison does) fills its own sample without
// adding to the first.
func TestCoreRun(t *testing.T) {
	margins := traceConfig(IOPS)
	margins.Duration, margins.Warmup, margins.Cooldown = 1800, 600, 600
	margins.Platters = 200
	noMargins := margins
	noMargins.Profile, noMargins.Warmup, noMargins.Cooldown = Typical, 0, 0

	gen := func(cfg TraceConfig) *Trace {
		tr, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	cases := []struct {
		name        string
		tr          *Trace
		wantOutside bool // some requests fall outside the core interval
	}{
		{"warmup and cooldown", gen(margins), true},
		{"core only", gen(noMargins), false},
		{"poisson", GeneratePoisson(0.2, 1800, 600, 600, 200, 10, 10e6, 3), true},
	}
	runSilica := func(reqs []*controller.Request, horizon float64) {
		cfg := library.DefaultConfig()
		cfg.Platters = 200
		lib, err := library.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lib.RunTrace(reqs, horizon)
	}
	runTape := func(reqs []*controller.Request, horizon float64) {
		cfg := tape.DefaultConfig()
		cfg.Cartridges = 200
		tl, err := tape.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tl.RunTrace(reqs, horizon)
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.tr
			before := make([]controller.Request, len(tr.Requests))
			ptrs := make([]*controller.Request, len(tr.Requests))
			nCore := 0
			for i, r := range tr.Requests {
				before[i], ptrs[i] = *r, r
				if tr.InCore(r) {
					nCore++
				}
			}
			if nCore == 0 || (nCore < len(tr.Requests)) != tc.wantOutside {
				t.Fatalf("%d of %d requests in core, wantOutside=%v", nCore, len(tr.Requests), tc.wantOutside)
			}

			reqs, first := tr.CoreRun()
			if len(reqs) != len(tr.Requests) {
				t.Fatalf("CoreRun returned %d requests, trace has %d", len(reqs), len(tr.Requests))
			}
			for i, r := range reqs {
				if r == tr.Requests[i] {
					t.Fatalf("request %d is shared with the trace, want a private copy", i)
				}
				if r.ID != tr.Requests[i].ID || r.Arrival != tr.Requests[i].Arrival {
					t.Fatalf("request %d is out of trace order", i)
				}
				if (r.Done != nil) != tr.InCore(r) {
					t.Fatalf("request %d: Done wired=%v, InCore=%v", i, r.Done != nil, tr.InCore(r))
				}
			}
			runSilica(reqs, tr.CoreEnd)
			if first.N() != nCore {
				t.Fatalf("silica run measured %d completions, want the %d core requests", first.N(), nCore)
			}
			if first.Quantile(0) < 0 {
				t.Fatalf("negative completion time %v", first.Quantile(0))
			}

			reqs, second := tr.CoreRun()
			runTape(reqs, tr.CoreEnd)
			if second.N() != nCore {
				t.Fatalf("tape run measured %d completions, want %d", second.N(), nCore)
			}
			if first.N() != nCore {
				t.Fatalf("second run added to the first run's sample: %d, want %d", first.N(), nCore)
			}

			for i, r := range tr.Requests {
				if r != ptrs[i] {
					t.Fatalf("trace slot %d now holds a different request", i)
				}
				if !reflect.DeepEqual(*r, before[i]) { // Done included: funcs are equal only when both nil
					t.Fatalf("trace request %d changed: %+v, was %+v", i, *r, before[i])
				}
			}
		})
	}
}
