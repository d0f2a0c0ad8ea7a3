package backend

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"silica/internal/library"
	"silica/internal/media"
	"silica/internal/obs"
)

// testTwin builds a small fast twin: few platters, high speedup so
// multi-second virtual mechanics cost microseconds of wall time.
func testTwin(t testing.TB, policy library.Policy, reg *obs.Registry) *Twin {
	t.Helper()
	cfg := DefaultTwinLibrary(media.TinyGeometry())
	cfg.Platters = 64
	cfg.Policy = policy
	cfg.Seed = 7
	tw, err := NewTwin(TwinConfig{Library: cfg, Speedup: 1e6, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tw.Close() })
	return tw
}

func TestDirectSemantics(t *testing.T) {
	var d Direct
	sp, err := d.Do(context.Background(), Op{Kind: OpRead, Platter: 3, TrackCount: 2})
	if err != nil || sp != (Span{}) {
		t.Fatalf("Do = %+v, %v; want zero span, nil", sp, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.Do(ctx, Op{Kind: OpRead}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Do err = %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want library.Policy
		ok   bool
	}{
		{"silica", library.PolicySilica, true},
		{"", library.PolicySilica, true},
		{"sp", library.PolicySP, true},
		{"ns", library.PolicyNS, true},
		{"fifo", 0, false},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("ParsePolicy(%q) = %v, %v", c.in, got, err)
		}
	}
}

func TestOpKindStrings(t *testing.T) {
	want := map[OpKind]string{
		OpRead: "read", OpBurn: "burn", OpScrub: "scrub", OpRebuildRead: "rebuild_read",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestTwinChargesVirtualLatency(t *testing.T) {
	tw := testTwin(t, library.PolicySilica, nil)
	sp, err := tw.Do(context.Background(), Op{Kind: OpRead, Platter: 5, StartTrack: 1, TrackCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Virtual <= 0 {
		t.Fatalf("virtual latency = %v, want > 0 (mount+seek at minimum)", sp.Virtual)
	}
	if sp.Wall <= 0 {
		t.Fatalf("wall latency = %v, want > 0", sp.Wall)
	}
}

func TestTwinConcurrentOps(t *testing.T) {
	reg := obs.NewRegistry()
	tw := testTwin(t, library.PolicySilica, reg)
	var wg sync.WaitGroup
	errs := make([]error, 24)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			kind := []OpKind{OpRead, OpBurn, OpScrub, OpRebuildRead}[i%4]
			_, errs[i] = tw.Do(context.Background(),
				Op{Kind: kind, Platter: media.PlatterID(i * 3), TrackCount: 1 + i%3})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	var done float64
	for _, s := range scrape(t, reg) {
		if s.Name == "silica_backend_mech_seconds_count" {
			done += s.Value
		}
	}
	if done != 24 {
		t.Fatalf("mechanical ops observed = %v, want 24", done)
	}
}

func TestTwinContextCancel(t *testing.T) {
	// Speedup 1: virtual seconds cost real seconds, so the op cannot
	// finish before the context fires.
	cfg := DefaultTwinLibrary(media.TinyGeometry())
	cfg.Platters = 64
	cfg.Seed = 7
	tw, err := NewTwin(TwinConfig{Library: cfg, Speedup: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tw.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	_, err = tw.Do(ctx, Op{Kind: OpRead, Platter: 1, TrackCount: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestTwinSetPolicy: the policy is a construction-time choice; one
// twin per policy reports it on silica_backend_info and serves ops
// under it.
func TestTwinSetPolicy(t *testing.T) {
	for _, pol := range []library.Policy{library.PolicySilica, library.PolicySP, library.PolicyNS} {
		reg := obs.NewRegistry()
		tw := testTwin(t, pol, reg)
		if _, err := tw.Do(context.Background(), Op{Kind: OpRead, Platter: 2, TrackCount: 1}); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		want := map[string]string{"backend": "twin", "policy": pol.String(), "speedup": "1e+06"}
		if s, ok := obs.FindSample(scrape(t, reg), "silica_backend_info", want); !ok || s.Value != 1 {
			t.Fatalf("%v: silica_backend_info%v = %+v, %v", pol, want, s, ok)
		}
	}
}

func TestTwinClose(t *testing.T) {
	tw := testTwin(t, library.PolicySilica, nil)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal("second Close should be a no-op")
	}
	if _, err := tw.Do(context.Background(), Op{Kind: OpRead, Platter: 1, TrackCount: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do after Close = %v, want ErrClosed", err)
	}
}

func TestTwinMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	tw := testTwin(t, library.PolicySilica, reg)
	if _, err := tw.Do(context.Background(), Op{Kind: OpRead, Platter: 3, TrackCount: 1}); err != nil {
		t.Fatal(err)
	}
	samples := scrape(t, reg)
	cnt, ok := obs.FindSample(samples, "silica_backend_mech_seconds_count", map[string]string{"op": "read"})
	if !ok || cnt.Value != 1 {
		t.Fatalf("mech count = %+v ok=%v, want 1", cnt, ok)
	}
	sum, _ := obs.FindSample(samples, "silica_backend_mech_virtual_seconds_sum", map[string]string{"op": "read"})
	if sum.Value <= 0 {
		t.Fatalf("virtual sum = %v, want > 0", sum.Value)
	}
	if v, ok := obs.FindSample(samples, "silica_backend_virtual_seconds", nil); !ok || v.Value <= 0 {
		t.Fatalf("virtual clock gauge = %+v ok=%v", v, ok)
	}
}

// scrape renders a registry to Prometheus text and parses it back.
func scrape(t testing.TB, reg *obs.Registry) []obs.PromSample {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseProm(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

func TestClampTracks(t *testing.T) {
	geom := media.TinyGeometry()
	n := geom.TracksPerPlatter
	cases := []struct {
		op         Op
		start, cnt int
	}{
		{Op{StartTrack: 0, TrackCount: 1}, 0, 1},
		{Op{StartTrack: -3, TrackCount: 0}, 0, 1},
		{Op{StartTrack: n + 2, TrackCount: 1}, (n + 2) % n, 1},
		{Op{StartTrack: n - 1, TrackCount: 5}, n - 1, 1},
	}
	for i, c := range cases {
		st, tc := clampTracks(c.op, geom)
		if st != c.start || tc != c.cnt {
			t.Errorf("case %d: clamp = (%d,%d), want (%d,%d)", i, st, tc, c.start, c.cnt)
		}
	}
}
