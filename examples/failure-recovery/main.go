// Failure-recovery: exercise the availability story end to end, at
// both layers of the reproduction.
//
// Data plane: fill a platter-set with real bytes, fail an information
// platter, and read its contents back through cross-platter network
// coding (§5) — every byte reconstructed from linear combinations of
// the surviving members.
//
// Control plane: in the library digital twin, fail 5% of platters and
// measure the tail-completion impact of the 16x recovery read
// amplification (§7.6), plus a blast-zone failure (§6) taking out one
// shelf of one rack.
package main

import (
	"bytes"
	"fmt"
	"log"

	"silica/internal/geometry"
	"silica/internal/library"
	"silica/internal/media"
	"silica/internal/service"
	"silica/internal/stats"
	"silica/internal/workload"
)

func main() {
	dataPlane()
	controlPlane()
}

func dataPlane() {
	fmt.Println("=== Data plane: cross-platter reconstruction of real bytes ===")
	cfg := service.DefaultConfig()
	svc, err := service.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Fill one platter per file so a set of SetInfo platters completes.
	platterBytes := int(cfg.Geom.PlatterUserBytes())
	originals := map[string][]byte{}
	for i := 0; i < cfg.SetInfo; i++ {
		name := fmt.Sprintf("archive-%d", i)
		data := bytes.Repeat([]byte{byte('A' + i)}, platterBytes/2)
		originals[name] = data
		if _, err := svc.Put("lab", name, data); err != nil {
			log.Fatal(err)
		}
		if err := svc.Flush(); err != nil {
			log.Fatal(err)
		}
	}
	st := svc.Stats()
	fmt.Printf("wrote %d information platters; set completed with %d redundancy platters\n",
		st.PlattersWritten, st.RedundancyPlatters)

	v, err := svc.Metadata().Get(struct{ Account, Name string }{"lab", "archive-0"})
	if err != nil {
		log.Fatal(err)
	}
	failed := media.PlatterID(v.Extents[0].Platter)
	if err := svc.FailPlatter(failed); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("platter %d failed (shuttle collision, say)\n", failed)

	got, err := svc.Get("lab", "archive-0")
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, originals["archive-0"]) {
		log.Fatal("reconstructed bytes differ!")
	}
	fmt.Printf("archive-0 reconstructed from set peers: %d bytes, %d sector recoveries\n\n",
		len(got), svc.Stats().PlatterRecovers)
}

func controlPlane() {
	fmt.Println("=== Control plane: tail impact of platter unavailability ===")
	run := func(unavailFrac float64) (*stats.Sample, *library.Library) {
		cfg := library.DefaultConfig()
		cfg.Platters = 2000
		cfg.Seed = 7
		lib, err := library.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		lib.MarkUnavailable(unavailFrac)
		tr, err := workload.Generate(workload.TraceConfig{
			Profile:       workload.IOPS,
			Duration:      4 * 3600,
			Warmup:        1800,
			Cooldown:      1800,
			Platters:      cfg.Platters,
			TracksPerFile: workload.TracksFor(10e6),
			TrackBytes:    10e6,
			Seed:          7,
		})
		if err != nil {
			log.Fatal(err)
		}
		reqs, core := tr.CoreRun()
		lib.RunTrace(reqs, tr.CoreEnd)
		return core, lib
	}

	healthy, _ := run(0)
	degraded, lib := run(0.05)
	fmt.Printf("healthy library:   p99.9 completion %s\n", stats.FormatDuration(healthy.P999()))
	fmt.Printf("5%% platters down:  p99.9 completion %s (%d recovery reads for %d affected requests)\n",
		stats.FormatDuration(degraded.P999()),
		lib.Metrics().InternalReads, lib.Metrics().InternalReads/16)

	// Blast-zone failure: one shelf of one rack becomes unreachable.
	cfg := library.DefaultConfig()
	cfg.Platters = 2000
	lib2, err := library.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	zone := geometry.BlastZone{Rack: 3, Shelf: 4}
	n := lib2.MarkZoneUnavailable(zone)
	fmt.Printf("blast zone rack %d shelf %d: %d platters unreachable — at most one per platter-set by §6 placement\n",
		zone.Rack, zone.Shelf, n)
}
