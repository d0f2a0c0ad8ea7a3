package gateway

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"silica/internal/media"
	"silica/internal/repair"
)

// smallSetConfig shrinks platters so a platter-set completes quickly.
func smallSetConfig() Config {
	cfg := testConfig()
	cfg.Service.Geom.TracksPerPlatter = 9
	return cfg
}

// fillSet pushes SetInfo platter-sized objects through the gateway,
// flushing each so the first platter-set completes.
func fillSet(t *testing.T, g *Gateway) map[string][]byte {
	t.Helper()
	cfg := g.cfg.Service
	platterBytes := int(cfg.Geom.PlatterUserBytes())
	files := map[string][]byte{}
	for i := 0; i < cfg.SetInfo; i++ {
		name := fmt.Sprintf("bulk%d", i)
		data := randBytes(uint64(90+i), platterBytes*3/4)
		files[name] = data
		if _, err := g.Put("acct", name, data); err != nil {
			t.Fatal(err)
		}
		if err := g.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if st := g.Service().Stats(); st.SetsCompleted != 1 {
		t.Fatalf("sets completed = %d, want 1", st.SetsCompleted)
	}
	return files
}

func TestHealthzDegradedOnLostRedundancy(t *testing.T) {
	cfg := smallSetConfig()
	cfg.DisableRepair = true // keep the failure visible
	g := newTestGateway(t, cfg)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)

	h, err := c.Healthz()
	if err != nil || h.Status != "ok" {
		t.Fatalf("healthz before failure = %+v, %v", h, err)
	}
	fillSet(t, g)
	victim := g.Service().ListPlatters()[0].ID
	if err := g.Service().FailPlatter(victim); err != nil {
		t.Fatal(err)
	}
	h, err = c.Healthz()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.DegradedSets != 1 {
		t.Fatalf("healthz after failure = %+v", h)
	}
	resp, err := srv.Client().Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("degraded healthz status = %d, want 503", resp.StatusCode)
	}
	if err := g.Service().Health().Transition(victim, repair.Healthy, "failure cleared"); err != nil {
		t.Fatal(err)
	}
	h, err = c.Healthz()
	if err != nil || h.Status != "ok" {
		t.Fatalf("healthz after restore = %+v, %v", h, err)
	}
}

func TestRepairEndpointRebuildsPlatter(t *testing.T) {
	cfg := smallSetConfig()
	cfg.Repair.ScrubInterval = 2 * time.Millisecond
	g := newTestGateway(t, cfg)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)

	files := fillSet(t, g)
	victim := g.Service().ListPlatters()[0].ID
	if err := c.Repair(victim); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		rec, ok := g.Service().Health().Get(victim)
		if ok && rec.Health() == repair.Retired && !g.Degraded() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebuild did not complete; health snapshot: %+v", g.HealthPlatters().Counts)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for name, want := range files {
		got, err := c.Get("acct", name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: length mismatch after rebuild", name)
		}
	}
	// The registry snapshot over HTTP carries the full arc.
	snap, err := c.HealthPlatters()
	if err != nil {
		t.Fatal(err)
	}
	var arc []string
	for _, p := range snap.Platters {
		if p.Platter != victim {
			continue
		}
		for _, tr := range p.History {
			arc = append(arc, tr.To)
		}
	}
	want := []string{"healthy", "failed", "rebuilding", "retired"}
	if len(arc) != len(want) {
		t.Fatalf("history arc = %v", arc)
	}
	for i := range want {
		if arc[i] != want[i] {
			t.Fatalf("history arc = %v, want %v", arc, want)
		}
	}

	// Repairing an unknown platter is a clean 404.
	if err := c.Repair(media.PlatterID(9999)); err == nil {
		t.Fatal("repair of unknown platter should fail")
	}
}

// TestHealthPlattersPlaceOnePlatterPerPosition: after a rebuild, GET
// /v1/health/platters places exactly one platter at each set position,
// the one the set index lists, and the retired member at set -1. The
// report used to place the retired member and its replacement at the
// same position.
func TestHealthPlattersPlaceOnePlatterPerPosition(t *testing.T) {
	cfg := smallSetConfig()
	cfg.DisableRepair = true // the test drives the rebuild
	g := newTestGateway(t, cfg)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)

	fillSet(t, g)
	victim := g.Service().ListPlatters()[0].ID
	if err := g.Service().FailPlatter(victim); err != nil {
		t.Fatal(err)
	}
	replacement, err := g.Service().RebuildPlatter(victim)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := c.HealthPlatters()
	if err != nil {
		t.Fatal(err)
	}
	placed := map[[2]int][]media.PlatterID{}
	for _, ph := range snap.Platters {
		if ph.Platter == victim && (ph.Health != "retired" || ph.Set != -1) {
			t.Errorf("retired platter %d reports %s at set %d position %d, want retired at set -1",
				victim, ph.Health, ph.Set, ph.SetPos)
		}
		if ph.Set >= 0 {
			placed[[2]int{ph.Set, ph.SetPos}] = append(placed[[2]int{ph.Set, ph.SetPos}], ph.Platter)
		}
	}
	want := map[[2]int][]media.PlatterID{}
	for _, p := range g.Service().ListPlatters() {
		if p.Set >= 0 {
			want[[2]int{p.Set, p.SetPos}] = []media.PlatterID{p.ID}
		}
	}
	if got := want[[2]int{0, 0}]; len(got) != 1 || got[0] != replacement {
		t.Fatalf("set index holds %v at set 0 position 0, want the replacement %d", got, replacement)
	}
	if !reflect.DeepEqual(placed, want) {
		t.Fatalf("health report places %v, want one platter a position, as the set index lists: %v", placed, want)
	}
}
