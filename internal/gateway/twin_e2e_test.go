package gateway

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"testing"

	"silica/internal/obs"
)

// twinDirectConfig is the direct-backend gateway the twin runs are
// compared against. The scrubber is off: these platters belong to no
// completed set, and one sampled track past within-track repair (a few
// in 10⁴ at the channel's sector failure rate) would fail a platter
// and every Get from it.
func twinDirectConfig() Config {
	cfg := testConfig()
	cfg.Service.Geom.TracksPerPlatter = 9
	cfg.DisableRepair = true
	return cfg
}

// twinTestConfig is a gateway over the twin backend at a speedup high
// enough that multi-second virtual mechanics cost about a millisecond
// of wall time each.
func twinTestConfig() Config {
	cfg := twinDirectConfig()
	cfg.Backend = "twin"
	cfg.BackendPolicy = "silica"
	cfg.TwinSpeedup = 1e6
	return cfg
}

// runTwinWorkload pushes a deterministic object set through a live
// HTTP server backed by g and returns every read-back.
func runTwinWorkload(t *testing.T, g *Gateway) map[string][]byte {
	t.Helper()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)

	want := map[string][]byte{}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("obj%d", i)
		want[name] = randBytes(uint64(300+i), 2000+i*911)
		if _, err := c.Put("acct", name, want[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{}
	for name := range want {
		data, err := c.Get("acct", name)
		if err != nil {
			t.Fatalf("get %s: %v", name, err)
		}
		if !bytes.Equal(data, want[name]) {
			t.Fatalf("%s: read-back mismatch", name)
		}
		got[name] = data
	}
	return got
}

// TestTwinE2E: a gateway with -backend twin serves byte-exact reads
// identical to -backend direct, charges nonzero mechanical latency
// visible in silica_backend_* histograms, and serves under the
// scheduling policy it was built with — all through live HTTP.
func TestTwinE2E(t *testing.T) {
	// (a) Byte identity: same workload, direct vs twin.
	gotDirect := runTwinWorkload(t, newTestGateway(t, twinDirectConfig()))

	g := newTestGateway(t, twinTestConfig())
	gotTwin := runTwinWorkload(t, g)
	for name, want := range gotDirect {
		if !bytes.Equal(gotTwin[name], want) {
			t.Errorf("%s: direct and twin backends returned different bytes", name)
		}
	}

	// (b) Mechanical latency is real and observed.
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)
	samples, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"read", "burn"} {
		lm := map[string]string{"op": op}
		cnt, ok := obs.FindSample(samples, "silica_backend_mech_seconds_count", lm)
		if !ok || cnt.Value == 0 {
			t.Errorf("no mechanical %s observations on /metrics", op)
		}
		sum, _ := obs.FindSample(samples, "silica_backend_mech_virtual_seconds_sum", lm)
		if sum.Value <= 0 {
			t.Errorf("mechanical %s virtual latency sum = %v, want > 0", op, sum.Value)
		}
	}
	wantInfo(t, samples, "twin", "silica", "1e+06")

	// (c) The policy is chosen at construction: a gateway built with ns
	// reports it and returns the same bytes.
	nsCfg := twinTestConfig()
	nsCfg.BackendPolicy = "ns"
	ns := newTestGateway(t, nsCfg)
	gotNS := runTwinWorkload(t, ns)
	for name, want := range gotDirect {
		if !bytes.Equal(gotNS[name], want) {
			t.Errorf("%s: direct and ns twin backends returned different bytes", name)
		}
	}
	nsSrv := httptest.NewServer(ns.Handler())
	defer nsSrv.Close()
	nsSamples, err := NewClient(nsSrv.URL).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	wantInfo(t, nsSamples, "twin", "ns", "1e+06")
}

// wantInfo requires silica_backend_info{backend,policy,speedup} 1 among
// a /metrics scrape's samples.
func wantInfo(t *testing.T, samples []obs.PromSample, kind, policy, speedup string) {
	t.Helper()
	want := map[string]string{"backend": kind, "policy": policy, "speedup": speedup}
	if s, ok := obs.FindSample(samples, "silica_backend_info", want); !ok || s.Value != 1 {
		t.Fatalf("silica_backend_info%v = %+v, %v", want, s, ok)
	}
}

// TestDirectBackendStatusHTTP covers the default backend's status over
// HTTP: /metrics names it on silica_backend_info.
func TestDirectBackendStatusHTTP(t *testing.T) {
	g := newTestGateway(t, testConfig())
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	samples, err := NewClient(srv.URL).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	wantInfo(t, samples, "direct", "", "")
}

// TestUnknownBackendRejected pins the config validation: an unknown
// backend, or a twin with an unknown policy, is refused by New.
func TestUnknownBackendRejected(t *testing.T) {
	cfg := testConfig()
	cfg.Backend = "punchcards"
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown backend accepted")
	}
	cfg = twinTestConfig()
	cfg.BackendPolicy = "bogus"
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown twin policy accepted")
	}
}
