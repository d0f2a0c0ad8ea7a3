package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"silica/internal/metadata"
	"silica/internal/obs"
	"silica/internal/repair"
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

// book names the /metrics sample a /v1/stats field is read from; the
// zero book marks a field computed from state, which has no family.
type book struct{ name, label, value string }

// statsBooks covers every numeric field of /v1/stats "service" and
// "repair" (DESIGN.md §9 "One set of books").
var statsBooks = map[string]map[string]book{
	"service": {
		"PlattersWritten":    {"silica_service_platters_total", "event", "written"},
		"PlattersFaulted":    {"silica_service_platters_total", "event", "faulted"},
		"RedundancyPlatters": {"silica_service_platters_total", "event", "redundancy"},
		"PlattersRebuilt":    {"silica_service_platters_total", "event", "rebuilt"},
		"PlattersRecycled":   {"silica_service_platters_total", "event", "recycled"},
		"SectorsWritten":     {"silica_service_sectors_written_total", "", ""},
		"BytesStored":        {"silica_service_stored_bytes_total", "kind", "user"},
		"RedundancyBytes":    {"silica_service_stored_bytes_total", "kind", "redundancy"},
		"VerifyFailures":     {"silica_service_verify_sector_failures_total", "", ""},
		"MinVerifyMargin":    {"silica_service_min_margin", "op", "verify"},
		"ScrubMinMargin":     {"silica_service_min_margin", "op", "scrub"},
		"ScrubbedSectors":    {"silica_repair_scrub_sectors_total", "", ""},
		"ScrubFailures":      {"silica_repair_scrub_sector_failures_total", "", ""},
		"StagedReads":        {"silica_service_reads_total", "source", "staged"},
		"DurableReads":       {"silica_service_reads_total", "source", "durable"},
		"SectorRepairs":      {"silica_read_recoveries_total", "tier", "sector"},
		"TrackRebuilds":      {"silica_read_recoveries_total", "tier", "track"},
		"PlatterRecovers":    {"silica_read_recoveries_total", "tier", "set"},
		"Files":              {},
		"SetsCompleted":      {},
		"HealthTransitions":  {},
		"DegradedSets":       {},
	},
	"repair": {
		"scrubs":          {"silica_repair_scrubs_total", "", ""},
		"scrub_skips":     {"silica_repair_scrub_skips_total", "", ""},
		"rebuilds_done":   {"silica_repair_rebuilds_total", "outcome", "done"},
		"rebuilds_failed": {"silica_repair_rebuilds_total", "outcome", "failed"},
		"rebuilds_active": {"silica_repair_rebuilds_active", "", ""},
		"rebuilds_queued": {"silica_repair_rebuilds_queued", "", ""},
	},
}

// TestServiceBooksAgreeWithMetrics carries TestStatsAgreeWithMetrics
// below the gateway: after a workload that moves the service's and the
// repair manager's books — a flush closing a set, a burn fault scrapping
// a platter, staged, durable and set-recovered Gets, a scrub pass, a
// rebuild and a recycle — every numeric field of /v1/stats "service" and
// "repair" equals its /metrics sample.
func TestServiceBooksAgreeWithMetrics(t *testing.T) {
	cfg := smallSetConfig()
	cfg.Repair.ScrubInterval = 2 * time.Millisecond
	cfg.Repair.AutoRebuild = false // the set-recovered Get must precede the rebuild
	g := newTestGateway(t, cfg)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)
	svc := g.Service()

	if err := g.Faults().ArmString("op=flush.burn,mode=error,count=1"); err != nil {
		t.Fatal(err)
	}
	fillSet(t, g)
	if _, err := g.Put("acct", "staged", randBytes(7, 900)); err != nil {
		t.Fatal(err)
	}
	v, err := svc.Metadata().Get(metadata.FileKey{Account: "acct", Name: "bulk0"})
	if err != nil {
		t.Fatal(err)
	}
	victim := v.Extents[0].Platter
	if err := svc.FailPlatter(victim); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"staged", "bulk1", "bulk0"} {
		if _, err := c.Get("acct", name); err != nil {
			t.Fatalf("get %s: %v", name, err)
		}
	}
	if err := c.Repair(victim); err != nil {
		t.Fatal(err)
	}
	// Wait on the manager's own outcome counts, not on Degraded(): with
	// AutoRebuild off, a platter the scrubber fails stays failed.
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if rs := g.Repair().Stats(); rs.RebuildsDone > 0 && rs.Scrubs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no rebuild and scrub pass in time: %+v, health %v", g.Repair().Stats(), g.HealthPlatters().Counts)
		}
	}
	if rec, _ := svc.Health().Get(victim); rec.Health() != repair.Retired {
		t.Fatalf("rebuilt platter %d is %v, want retired", victim, rec.Health())
	}
	if err := svc.RecyclePlatter(victim); err != nil {
		t.Fatal(err)
	}
	// Closing stops the scrubber, so the two reads below see one state;
	// its final drain burns the staged object.
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	samples, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for section, books := range statsBooks {
		var fields map[string]any
		if err := json.Unmarshal(doc[section], &fields); err != nil {
			t.Fatalf("/v1/stats %s: %v", section, err)
		}
		for field, val := range fields {
			b, ok := books[field]
			if !ok {
				t.Errorf("/v1/stats %s.%s is not in the books table", section, field)
				continue
			}
			if b.name == "" {
				continue
			}
			series, want := b.name, map[string]string{}
			if b.label != "" {
				series += fmt.Sprintf("{%s=%q}", b.label, b.value)
				want[b.label] = b.value
			}
			s, ok := obs.FindSample(samples, b.name, want)
			if !ok {
				t.Errorf("%s.%s: /metrics has no %s", section, field, series)
				continue
			}
			if s.Value != val {
				t.Errorf("%s.%s: /v1/stats %v, /metrics %s %v", section, field, val, series, s.Value)
			}
		}
		for field := range books {
			if _, ok := fields[field]; !ok {
				t.Errorf("books table names %s.%s, which /v1/stats does not carry", section, field)
			}
		}
	}

	st, rs := svc.Stats(), g.Repair().Stats()
	for name, n := range map[string]int64{
		"PlattersWritten": int64(st.PlattersWritten), "PlattersFaulted": int64(st.PlattersFaulted),
		"RedundancyPlatters": int64(st.RedundancyPlatters), "PlattersRebuilt": int64(st.PlattersRebuilt),
		"PlattersRecycled": int64(st.PlattersRecycled), "SectorsWritten": int64(st.SectorsWritten),
		"BytesStored": st.BytesStored, "RedundancyBytes": st.RedundancyBytes,
		"StagedReads": int64(st.StagedReads), "DurableReads": int64(st.DurableReads),
		"PlatterRecovers": int64(st.PlatterRecovers), "ScrubbedSectors": int64(st.ScrubbedSectors),
		"SetsCompleted": int64(st.SetsCompleted), "Scrubs": rs.Scrubs, "RebuildsDone": rs.RebuildsDone,
	} {
		if n == 0 {
			t.Errorf("%s = 0: the workload never moved it", name)
		}
	}
	if st.MinVerifyMargin >= 1 || st.ScrubMinMargin >= 1 {
		t.Errorf("minimum margins never lowered: verify %v, scrub %v", st.MinVerifyMargin, st.ScrubMinMargin)
	}
}
