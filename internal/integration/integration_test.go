// Package integration exercises end-to-end scenarios that span
// multiple subsystems: the full archive lifecycle on the real data
// path, metadata disaster recovery from platter headers, and a
// kitchen-sink run of the library twin with every optional subsystem
// enabled at once.
package integration

import (
	"bytes"
	"fmt"
	"testing"

	"silica/internal/controller"
	"silica/internal/library"
	"silica/internal/media"
	"silica/internal/metadata"
	"silica/internal/service"
	"silica/internal/sim"
	"silica/internal/workload"
)

func randBytes(seed uint64, n int) []byte {
	r := sim.NewRNG(seed)
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(r.Uint64())
	}
	return out
}

// TestArchiveLifecycleToRecycling drives a file population through
// put/flush/read/delete and checks the §3 recycling condition: once
// every file on a platter is deleted, no live version points at it.
func TestArchiveLifecycleToRecycling(t *testing.T) {
	svc, err := service.New(service.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("f%d", i)
		files[name] = randBytes(uint64(i+1), 4000+i*1000)
		if _, err := svc.Put("acct", name, files[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	// Everything reads back.
	for name, want := range files {
		got, err := svc.Get("acct", name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: mismatch", name)
		}
	}
	// Find the platter(s) holding the files, delete everything on
	// them, and verify no live version is left on them.
	meta := svc.Metadata()
	platters := map[media.PlatterID]bool{}
	for name := range files {
		v, err := meta.Get(metadata.FileKey{Account: "acct", Name: name})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range v.Extents {
			platters[e.Platter] = true
		}
	}
	for name := range files {
		if err := svc.Delete("acct", name); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range meta.Export() {
		for _, v := range d.Versions {
			for _, e := range v.Extents {
				if v.State != metadata.Deleted && platters[e.Platter] {
					t.Fatalf("%v v%d is %v on platter %d after all deletes", d.Key, v.Version, v.State, e.Platter)
				}
			}
		}
	}
}

// TestMetadataDisasterRecovery simulates losing the metadata service:
// rebuild the index from platter self-descriptive headers and verify
// every mapping survives (§6).
func TestMetadataDisasterRecovery(t *testing.T) {
	svc, err := service.New(service.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"alpha", "beta", "gamma"}
	for i, n := range names {
		if _, err := svc.Put("acct", n, randBytes(uint64(i+40), 3000+500*i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	meta := svc.Metadata()
	// Scan "all platters" for headers and rebuild.
	var headers [][]metadata.HeaderEntry
	for p := media.PlatterID(0); p < 50; p++ {
		if h := meta.PlatterHeader(p); len(h) > 0 {
			headers = append(headers, h)
		}
	}
	if len(headers) == 0 {
		t.Fatal("no headers found")
	}
	rebuilt := metadata.RebuildFromHeaders(headers)
	for _, n := range names {
		orig, err := meta.Get(metadata.FileKey{Account: "acct", Name: n})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := rebuilt.Get(metadata.FileKey{Account: "acct", Name: n})
		if err != nil {
			t.Fatalf("%s lost in rebuild: %v", n, err)
		}
		if rec.Size != orig.Size || rec.KeyID != orig.KeyID || len(rec.Extents) != len(orig.Extents) {
			t.Fatalf("%s rebuilt as %+v, want %+v", n, rec, orig)
		}
		for i := range rec.Extents {
			if rec.Extents[i] != orig.Extents[i] {
				t.Fatalf("%s extent %d differs", n, i)
			}
		}
	}
}

// TestKitchenSink enables every optional library mode at once —
// prefetch, proactive work stealing, platter unavailability — and
// checks the run completes coherently: every request completes or is
// counted unrecoverable, and unavailability drives recovery reads.
func TestKitchenSink(t *testing.T) {
	cfg := library.DefaultConfig()
	cfg.Platters = 400
	cfg.Seed = 23
	cfg.Prefetch = true
	cfg.ProactiveStealing = true
	lib, err := library.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lib.MarkUnavailable(0.03)
	tr, err := workload.Generate(workload.TraceConfig{
		Profile:       workload.IOPS,
		Duration:      3600,
		Platters:      400,
		TracksPerFile: workload.TracksFor(10e6),
		TrackBytes:    10e6,
		RateScale:     0.3,
		Seed:          23,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]*controller.Request, len(tr.Requests))
	copy(reqs, tr.Requests)
	lib.RunTrace(reqs, tr.CoreEnd)
	m := lib.Metrics()
	if m.Completions.N() == 0 {
		t.Fatal("no completions")
	}
	if m.Completions.N()+m.Unrecoverable < m.Submitted-m.InternalReads {
		t.Fatalf("requests lost: %d completed + %d unrecoverable of %d",
			m.Completions.N(), m.Unrecoverable, m.Submitted)
	}
	if m.InternalReads == 0 {
		t.Fatal("unavailability should trigger recovery")
	}
}
