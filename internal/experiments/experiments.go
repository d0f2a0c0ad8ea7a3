// Package experiments regenerates every table and figure of the
// paper's evaluation (§7) plus the §2 workload characterization and
// the §6 durability math. Each experiment returns a structured result
// with a formatted table; cmd/silica-sim and the repository's root
// benchmarks are thin wrappers around these functions.
//
// Absolute numbers differ from the paper (their testbed, our
// simulator), but each experiment's *shape* — orderings, plateaus,
// crossovers — is asserted by tests and recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"strings"

	"silica/internal/library"
	"silica/internal/stats"
	"silica/internal/workload"
)

// Scale trades fidelity for runtime. Full reproduces the paper's
// 12-hour traces; Quick shrinks traces and the platter population for
// benchmarks and CI.
type Scale struct {
	TraceScale float64 // multiplier on request counts
	Duration   float64 // core interval, seconds
	Platters   int
	Seed       uint64
}

// FullScale matches the paper's evaluation setup.
func FullScale() Scale {
	return Scale{TraceScale: 1, Duration: 12 * 3600, Platters: 4000, Seed: 1}
}

// QuickScale runs every experiment in seconds.
func QuickScale() Scale {
	return Scale{TraceScale: 1, Duration: 3600, Platters: 1000, Seed: 1}
}

// MBps converts MB/s to bytes/s.
func MBps(mb float64) float64 { return mb * 1e6 }

// buildLibrary constructs a library for one experiment run.
func buildLibrary(pol library.Policy, shuttles int, throughputMBps float64, sc Scale, stealing bool) (*library.Library, error) {
	cfg := library.DefaultConfig()
	cfg.Policy = pol
	cfg.Shuttles = shuttles
	cfg.DriveThroughput = MBps(throughputMBps)
	cfg.Platters = sc.Platters
	cfg.WorkStealing = stealing
	cfg.Seed = sc.Seed
	return library.New(cfg)
}

// genTrace builds a profile trace sized to the scale.
func genTrace(p workload.Profile, sc Scale, zipf float64) (*workload.Trace, error) {
	geomTrack := int64(10e6) // default geometry track payload
	return workload.Generate(workload.TraceConfig{
		Profile:       p,
		Duration:      sc.Duration,
		Warmup:        sc.Duration / 12,
		Cooldown:      sc.Duration / 12,
		Platters:      sc.Platters,
		TracksPerFile: workload.TracksFor(geomTrack),
		TrackBytes:    geomTrack,
		ZipfSkew:      zipf,
		RateScale:     sc.TraceScale,
		Seed:          sc.Seed,
	})
}

// runTrace drives a library with a trace and returns the completion
// time sample of the core-interval requests.
func runTrace(lib *library.Library, tr *workload.Trace) *stats.Sample {
	reqs, core := tr.CoreRun()
	lib.RunTrace(reqs, tr.CoreEnd)
	return core
}

// tailOf is the paper's tail metric: the 99.9th percentile.
func tailOf(s *stats.Sample) float64 { return s.P999() }

// tailSeeds reports how many seeds each simulated point averages over;
// the p99.9 of a single bursty trace is noisy, so sweeps run each
// configuration on tailSeeds independent traces and average the tails.
const tailSeeds = 3

// meanTail runs one configuration across tailSeeds seeds and averages
// the tail completion time. build gets the per-run scale (seed varies).
func meanTail(sc Scale, run func(Scale) (float64, error)) (float64, error) {
	var sum float64
	for i := 0; i < tailSeeds; i++ {
		s := sc
		s.Seed = sc.Seed + uint64(i)*1000003
		t, err := run(s)
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum / tailSeeds, nil
}

// table renders rows with a header, for terminal output.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
