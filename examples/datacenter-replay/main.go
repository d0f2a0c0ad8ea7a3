// Datacenter-replay: drive the library digital twin with a synthetic
// 12-hour cloud-archival read trace (the §7.2 methodology) and report
// the numbers an operator would watch: tail completion time versus the
// 15-hour SLO, drive utilization with verification fast-switching, and
// shuttle congestion/energy.
package main

import (
	"flag"
	"fmt"
	"log"

	"silica/internal/library"
	"silica/internal/stats"
	"silica/internal/workload"
)

func main() {
	profile := flag.String("profile", "iops", "trace profile: typical, iops, volume")
	shuttles := flag.Int("shuttles", 20, "shuttles in the library")
	mbps := flag.Float64("mbps", 60, "per-drive read throughput, MB/s")
	hours := flag.Float64("hours", 12, "core trace duration")
	flag.Parse()

	var p workload.Profile
	switch *profile {
	case "typical":
		p = workload.Typical
	case "iops":
		p = workload.IOPS
	case "volume":
		p = workload.Volume
	default:
		log.Fatalf("unknown profile %q", *profile)
	}

	cfg := library.DefaultConfig()
	cfg.Shuttles = *shuttles
	cfg.DriveThroughput = *mbps * 1e6
	lib, err := library.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	tr, err := workload.Generate(workload.TraceConfig{
		Profile:       p,
		Duration:      *hours * 3600,
		Warmup:        *hours * 300,
		Cooldown:      *hours * 300,
		Platters:      cfg.Platters,
		TracksPerFile: workload.TracksFor(10e6),
		TrackBytes:    10e6,
		Seed:          1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replaying %s trace: %d requests over %.0f h (20 drives @ %.0f MB/s, %d shuttles)\n",
		p, len(tr.Requests), *hours, *mbps, *shuttles)

	reqs, sample := tr.CoreRun()
	lib.RunTrace(reqs, tr.CoreEnd)

	fmt.Printf("\ncompletion time (core interval, %d requests):\n", sample.N())
	fmt.Printf("  median %s   p99 %s   p99.9 %s   max %s\n",
		stats.FormatDuration(sample.Median()), stats.FormatDuration(sample.Quantile(0.99)),
		stats.FormatDuration(sample.P999()), stats.FormatDuration(sample.Max()))
	slo := 15 * 3600.0
	if sample.P999() <= slo {
		fmt.Printf("  SLO: PASS (tail %.1fx under the 15 h objective)\n", slo/sample.P999())
	} else {
		fmt.Printf("  SLO: MISS by %s\n", stats.FormatDuration(sample.P999()-slo))
	}

	u := lib.DriveUtilization(lib.Sim().Now())
	fmt.Printf("\ndrive utilization: %.1f%% (read %.1f%%, verify %.1f%%, mount %.1f%%, switch %.1f%%)\n",
		100*u.Utilization(), 100*u.Read, 100*u.Verify, 100*u.Mount, 100*u.Switch)

	sh := lib.ShuttleStats()
	fmt.Printf("shuttles: %d platter ops, %d stolen, congestion %.1f%% of travel, %.0f energy units/op\n",
		sh.PlatterOps, sh.StolenOps, 100*sh.CongestionOverhead(), sh.EnergyPerOp())
	fmt.Printf("bytes served: %s\n", stats.FormatBytes(float64(lib.Metrics().BytesRead)))
}
