package gateway

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"silica/internal/obs"
)

// snapshotBytes reports the bytes one call of f allocates: the least of
// several measurements, so a background goroutine's allocation landing
// inside one window does not count against f.
func snapshotBytes(f func()) uint64 {
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d < least {
			least = d
		}
	}
	return least
}

// TestSnapshotCostIndependentOfHistory pins the bounded-stats fix: the
// request books are fixed-size histograms, so what a stats snapshot
// allocates must not grow with the number of requests served. (The
// per-observation recorder it replaces copied and sorted the whole
// history on every snapshot: ~160 KB more after these 19 000 Gets.)
func TestSnapshotCostIndependentOfHistory(t *testing.T) {
	cfg := testConfig()
	cfg.DisableRepair = true
	cfg.FlushInterval = time.Hour
	g := newTestGateway(t, cfg)
	if _, err := g.Put("acct", "hot", randBytes(3, 512)); err != nil {
		t.Fatal(err)
	}
	gets := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := g.Get("acct", "hot"); err != nil {
				t.Fatal(err)
			}
		}
	}
	gets(1000)
	early := snapshotBytes(func() { g.Snapshot() })
	gets(19000)
	late := snapshotBytes(func() { g.Snapshot() })
	if n := g.Snapshot().Latencies["get"].N; n != 20000 {
		t.Fatalf("get summary N = %d, want 20000", n)
	}
	const slack = 2048
	if late > early+slack {
		t.Fatalf("Snapshot allocates %d B after 20000 gets vs %d B after 1000: cost grows with history", late, early)
	}
}

// TestStatsAgreeWithMetrics checks /v1/stats is a view of the registry:
// counters equal the exposition's totals, and every latency quantile
// equals the one a Prometheus consumer computes from the same
// histogram's buckets.
func TestStatsAgreeWithMetrics(t *testing.T) {
	g := newTestGateway(t, testConfig())
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("o%d", i%7)
		if _, err := g.Put("acct", name, randBytes(uint64(i), 300+i)); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Get("acct", name); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)
	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	samples, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}

	for _, class := range []string{"put", "get"} {
		sum, ok := snap.Latencies[class]
		if !ok || sum.N != 200 {
			t.Fatalf("latencies[%s] = %+v (present %v), want N = 200", class, sum, ok)
		}
		labels := map[string]string{"class": class}
		for _, q := range []struct {
			q    float64
			have float64
		}{{0.5, sum.P50}, {0.9, sum.P90}, {0.99, sum.P99}, {0.999, sum.P999}} {
			want, ok := obs.HistQuantile(samples, "silica_gateway_request_seconds", labels, q.q)
			if !ok || q.have != want {
				t.Errorf("%s p%v: /v1/stats %v, /metrics buckets %v (ok %v)", class, 100*q.q, q.have, want, ok)
			}
		}
		if sum.Max < sum.P999 || sum.Max > 2*sum.P999+1e-6 {
			t.Errorf("%s Max = %v is not the occupied bucket's upper bound (p99.9 %v)", class, sum.Max, sum.P999)
		}
	}
	if _, ok := snap.Latencies["delete"]; ok {
		t.Error("latencies lists a class that served nothing")
	}
	if snap.Latencies["flush"].N != 1 {
		t.Errorf("flush summary = %+v, want N = 1", snap.Latencies["flush"])
	}
	if snap.Counters.Accepted != 400 || snap.Counters.Completed != 400 || snap.Counters.Flushes != 1 {
		t.Errorf("counters = %+v, want 400 accepted, 400 completed, 1 flush", snap.Counters)
	}
}
