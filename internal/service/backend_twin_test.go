package service

import (
	"bytes"
	"fmt"
	"testing"

	"silica/internal/backend"
	"silica/internal/media"
	"silica/internal/obs"
	"silica/internal/repair"
)

// newBackendService builds a service over the given backend with the
// small-set geometry, so a platter-set (and thus redundancy burns and
// rebuilds) completes quickly.
func newBackendService(t *testing.T, be backend.Backend) (*Service, Config) {
	t.Helper()
	cfg := smallSetConfig()
	cfg.Backend = be
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, cfg
}

// testingTwin is a high-speedup twin sized for unit tests, reporting
// its silica_backend_* families on reg.
func testingTwin(t *testing.T, geom media.Geometry, reg *obs.Registry) *backend.Twin {
	t.Helper()
	lc := backend.DefaultTwinLibrary(geom)
	lc.Platters = 64
	lc.Seed = 11
	tw, err := backend.NewTwin(backend.TwinConfig{Library: lc, Speedup: 1e6, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tw.Close() })
	return tw
}

// driveWorkload runs the identical media-touching script against one
// service — flush burns, durable reads, a scrub sample, and a platter
// rebuild — and returns every observable byte. The backend determinism
// contract (DESIGN.md §12) says the bytes this function observes never
// depend on the backend; the backend may only add latency.
func driveWorkload(t *testing.T, s *Service, cfg Config) (map[string][]byte, repair.ScrubReport) {
	t.Helper()
	files := fillSet(t, s, cfg)

	// A few sub-platter files flushed together, then read durably.
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("small%d", i)
		data := randBytes(uint64(200+i), 3000+i*1777)
		files[name] = data
		if _, err := s.Put("acct", name, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	got := map[string][]byte{}
	for name := range files {
		data, err := s.Get("acct", name)
		if err != nil {
			t.Fatalf("get %s: %v", name, err)
		}
		got[name] = data
	}

	// Scrub a data-bearing platter.
	scrubbed, err := s.ScrubPlatter(platterOf(t, s, "acct", "bulk0"), 2)
	if err != nil {
		t.Fatal(err)
	}

	// Fail and rebuild a platter, then read back through the rebuilt
	// copy: rebuild member reads and the replacement burn both cross
	// the backend.
	old := platterOf(t, s, "acct", "bulk1")
	if err := s.FailPlatter(old); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RebuildPlatter(old); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := s.Get("acct", "bulk1")
	if err != nil {
		t.Fatal(err)
	}
	got["bulk1-rebuilt"] = rebuilt
	return got, scrubbed
}

// TestBackendByteIdentity is the determinism contract test: the same
// workload through Direct and through a Twin yields byte-identical
// reads, scrub results, and rebuild output. The twin may only add
// latency.
func TestBackendByteIdentity(t *testing.T) {
	sDirect, cfgD := newBackendService(t, backend.Direct{})
	gotDirect, scrubDirect := driveWorkload(t, sDirect, cfgD)

	reg := obs.NewRegistry()
	sTwin, cfgT := newBackendService(t, testingTwin(t, smallSetConfig().Geom, reg))
	gotTwin, scrubTwin := driveWorkload(t, sTwin, cfgT)

	if len(gotDirect) != len(gotTwin) {
		t.Fatalf("file sets differ: %d direct vs %d twin", len(gotDirect), len(gotTwin))
	}
	for name, want := range gotDirect {
		if !bytes.Equal(gotTwin[name], want) {
			t.Errorf("%s: bytes differ between direct and twin backends", name)
		}
	}
	// The structural scrub outcome (which window, how many sectors) is
	// backend-independent. The analog margins are not comparable across
	// service instances: envelope keys come from crypto/rand, so the
	// ciphertext — and therefore the voxel pattern the channel noise
	// acts on — differs per instance by design.
	if scrubDirect.TracksSampled != scrubTwin.TracksSampled ||
		scrubDirect.SectorsSampled != scrubTwin.SectorsSampled {
		t.Errorf("scrub sampling differs: direct %+v vs twin %+v", scrubDirect, scrubTwin)
	}
	for _, rep := range []repair.ScrubReport{scrubDirect, scrubTwin} {
		if rep.MinMargin <= 0 || rep.MinMargin > 1 || rep.TracksBeyondRepair != 0 {
			t.Errorf("implausible scrub report: %+v", rep)
		}
	}

	// The twin actually charged mechanical work for every op class the
	// workload exercised.
	var prom bytes.Buffer
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseProm(&prom)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"read", "burn", "scrub", "rebuild_read"} {
		if n, _ := obs.FindSample(samples, "silica_backend_mech_seconds_count", map[string]string{"op": op}); n.Value == 0 {
			t.Errorf("twin charged no %s ops", op)
		}
	}
	if v, _ := obs.FindSample(samples, "silica_backend_virtual_seconds", nil); v.Value <= 0 {
		t.Errorf("twin virtual clock never advanced")
	}
}
