package gateway

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"silica/internal/metadata"
	"silica/internal/obs"
	"silica/internal/repair"
)

// book names the /metrics sample a Stats field is read from; the zero
// book marks a field computed from state, which has no family.
type book struct{ name, label, value string }

// statsBooks covers every numeric field of service.Stats ("service")
// and repair.ManagerStats ("repair") as they marshal to JSON — the
// views silicactl, silica-load and the examples print (DESIGN.md §9
// "One set of books").
var statsBooks = map[string]map[string]book{
	"service": {
		"PlattersWritten":    {"silica_service_platters_total", "event", "written"},
		"PlattersFaulted":    {"silica_service_platters_total", "event", "faulted"},
		"RedundancyPlatters": {"silica_service_platters_total", "event", "redundancy"},
		"PlattersRebuilt":    {"silica_service_platters_total", "event", "rebuilt"},
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

// TestServiceBooksAgreeWithMetrics: after a workload that moves the
// service's and the repair manager's books — a flush closing a set, a
// burn fault scrapping a platter, staged, durable and set-recovered
// Gets, a scrub pass and a rebuild — every numeric field of
// svc.Stats() and g.Repair().Stats() equals its /metrics sample.
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
	// Closing stops the scrubber, so the two reads below see one state;
	// its final drain burns the staged object.
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	st, rs := svc.Stats(), g.Repair().Stats()
	samples, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for section, view := range map[string]any{"service": st, "repair": rs} {
		doc, err := json.Marshal(view)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]any
		if err := json.Unmarshal(doc, &fields); err != nil {
			t.Fatalf("%s: %v", section, err)
		}
		books := statsBooks[section]
		for field, val := range fields {
			b, ok := books[field]
			if !ok {
				t.Errorf("%s.%s is not in the books table", section, field)
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
				t.Errorf("%s.%s: Stats %v, /metrics %s %v", section, field, val, series, s.Value)
			}
		}
		for field := range books {
			if _, ok := fields[field]; !ok {
				t.Errorf("books table names %s.%s, which Stats does not carry", section, field)
			}
		}
	}

	for name, n := range map[string]int64{
		"PlattersWritten": int64(st.PlattersWritten), "PlattersFaulted": int64(st.PlattersFaulted),
		"RedundancyPlatters": int64(st.RedundancyPlatters), "PlattersRebuilt": int64(st.PlattersRebuilt),
		"SectorsWritten": int64(st.SectorsWritten),
		"BytesStored":    st.BytesStored, "RedundancyBytes": st.RedundancyBytes,
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
