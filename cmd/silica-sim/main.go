// Command silica-sim runs one of the paper's experiments by name and
// prints its table. It also writes synthetic read traces as JSONL
// (-generate) and replays such a file through the library simulator
// (-trace):
//
//	silica-sim -generate iops -hours 1 -platters 200 > trace.jsonl
//	silica-sim -trace trace.jsonl -platters 200
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"silica/internal/controller"
	"silica/internal/experiments"
	"silica/internal/library"
	"silica/internal/media"
	"silica/internal/stats"
	"silica/internal/workload"
)

func main() {
	exp := flag.String("experiment", "all", "experiment id: fig1a fig1b fig1c fig2 fig3 table1 durability fig5a fig5b fig5c fig5d fig6 fig7a fig7b fig7c fig8 fig9, ablations, policy-live, or all")
	quick := flag.Bool("quick", false, "scaled-down traces (seconds per experiment)")
	seed := flag.Uint64("seed", 1, "root random seed")
	gen := flag.String("generate", "", "write a typical, iops or volume trace as JSONL to stdout instead of running experiments")
	hours := flag.Float64("hours", 12, "core trace duration in hours (with -generate)")
	zipf := flag.Float64("zipf", 0, "zipf skew exponent, 0 = uniform (with -generate)")
	traceFile := flag.String("trace", "", "replay a -generate JSONL file instead of running experiments")
	shuttles := flag.Int("shuttles", 20, "shuttles (with -trace)")
	mbps := flag.Float64("mbps", 60, "per-drive MB/s (with -trace)")
	platters := flag.Int("platters", 4000, "library platters (with -generate and -trace)")
	flag.Parse()

	if *gen != "" {
		generate(*gen, *seed, *platters, *hours, *zipf)
		return
	}
	if *traceFile != "" {
		replay(*traceFile, *shuttles, *mbps, *platters, *seed)
		return
	}

	sc := experiments.FullScale()
	if *quick {
		sc = experiments.QuickScale()
	}
	sc.Seed = *seed

	run := func(name string, f func() (fmt.Stringer, error)) {
		if *exp != "all" && *exp != name {
			return
		}
		start := time.Now()
		res, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(res.String())
		fmt.Printf("[%s took %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	wrap := func(v fmt.Stringer) (fmt.Stringer, error) { return v, nil }

	run("fig1a", func() (fmt.Stringer, error) { return wrap(experiments.Fig1a(sc.Seed)) })
	run("fig1b", func() (fmt.Stringer, error) { return wrap(experiments.Fig1b(200000, sc.Seed)) })
	run("fig1c", func() (fmt.Stringer, error) { return wrap(experiments.Fig1c(sc.Seed)) })
	run("fig2", func() (fmt.Stringer, error) { return wrap(experiments.Fig2(sc.Seed)) })
	run("fig3", func() (fmt.Stringer, error) { return wrap(experiments.Fig3(20000, sc.Seed)) })
	run("table1", func() (fmt.Stringer, error) { return wrap(experiments.Table1()) })
	run("durability", func() (fmt.Stringer, error) { return wrap(experiments.Durability()) })
	run("fig5a", func() (fmt.Stringer, error) { r, err := experiments.Fig5a(sc); return r, err })
	run("fig5b", func() (fmt.Stringer, error) { r, err := experiments.Fig5b(sc); return r, err })
	run("fig5c", func() (fmt.Stringer, error) { r, err := experiments.Fig5c(sc); return r, err })
	run("fig5d", func() (fmt.Stringer, error) { r, err := experiments.Fig5d(sc); return r, err })
	run("fig6", func() (fmt.Stringer, error) { r, err := experiments.Fig6(sc); return r, err })
	run("fig7a", func() (fmt.Stringer, error) { r, err := experiments.Fig7a(sc); return r, err })
	run("fig7b", func() (fmt.Stringer, error) { r, err := experiments.Fig7b(sc); return r, err })
	run("fig7c", func() (fmt.Stringer, error) { r, err := experiments.Fig7c(sc); return r, err })
	run("fig8", func() (fmt.Stringer, error) { r, err := experiments.Fig8(sc); return r, err })
	run("fig9", func() (fmt.Stringer, error) { r, err := experiments.Fig9(sc); return r, err })
	if *exp == "ablations" {
		run("ablations", func() (fmt.Stringer, error) { r, err := experiments.Ablations(sc); return r, err })
	}
	if *exp == "tape" {
		run("tape", func() (fmt.Stringer, error) { r, err := experiments.TapeVsSilica(sc); return r, err })
	}
	if *exp == "policy-live" {
		// Runs a real gateway + HTTP server per policy with the twin
		// backend — opt-in by name, like ablations.
		run("policy-live", func() (fmt.Stringer, error) {
			lcfg := experiments.DefaultPolicyLiveConfig()
			lcfg.Seed = sc.Seed
			r, err := experiments.PolicyComparisonLive(lcfg)
			return r, err
		})
	}
}

// jsonRequest is one line of a trace file: what -generate writes and
// -trace reads.
type jsonRequest struct {
	ID         int64   `json:"id"`
	Platter    int64   `json:"platter"`
	StartTrack int     `json:"start_track"`
	TrackCount int     `json:"track_count"`
	Bytes      int64   `json:"bytes"`
	Arrival    float64 `json:"arrival_sec"`
}

// generate writes a synthetic trace of the named profile to stdout, one
// jsonRequest per line, and a summary line to stderr.
func generate(profile string, seed uint64, platters int, hours, zipf float64) {
	p, ok := map[string]workload.Profile{
		"typical": workload.Typical, "iops": workload.IOPS, "volume": workload.Volume,
	}[profile]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown profile %q: want typical, iops or volume\n", profile)
		os.Exit(2)
	}
	tr, err := workload.Generate(workload.TraceConfig{
		Profile:       p,
		Duration:      hours * 3600,
		Warmup:        hours * 300,
		Cooldown:      hours * 300,
		Platters:      platters,
		TracksPerFile: workload.TracksFor(10e6),
		TrackBytes:    10e6,
		ZipfSkew:      zipf,
		Seed:          seed,
	})
	check(err)
	w := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(w)
	for _, r := range tr.Requests {
		check(enc.Encode(jsonRequest{
			ID: int64(r.ID), Platter: int64(r.Platter), StartTrack: r.StartTrack,
			TrackCount: r.TrackCount, Bytes: r.Bytes, Arrival: r.Arrival,
		}))
	}
	check(w.Flush())
	fmt.Fprintf(os.Stderr, "wrote %d requests (core window %.0f-%.0f s)\n",
		len(tr.Requests), tr.CoreStart, tr.CoreEnd)
}

// replay drives a library with a trace file written by -generate.
func replay(path string, shuttles int, mbps float64, platters int, seed uint64) {
	f, err := os.Open(path)
	check(err)
	defer f.Close()
	var reqs []*controller.Request
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var jr jsonRequest
		if err := json.Unmarshal(sc.Bytes(), &jr); err != nil {
			fmt.Fprintf(os.Stderr, "bad trace line: %v\n", err)
			os.Exit(1)
		}
		reqs = append(reqs, &controller.Request{
			ID: controller.RequestID(jr.ID), Platter: media.PlatterID(jr.Platter % int64(platters)),
			StartTrack: jr.StartTrack, TrackCount: jr.TrackCount,
			Bytes: jr.Bytes, Arrival: jr.Arrival,
		})
	}
	check(sc.Err())
	cfg := library.DefaultConfig()
	cfg.Shuttles = shuttles
	cfg.DriveThroughput = mbps * 1e6
	cfg.Platters = platters
	cfg.Seed = seed
	lib, err := library.New(cfg)
	check(err)
	sample := stats.NewSample()
	for _, r := range reqs {
		r := r
		r.Done = func(t float64) { sample.Add(t - r.Arrival) }
	}
	lib.RunTrace(reqs, 0)
	u := lib.DriveUtilization(lib.Sim().Now())
	fmt.Printf("replayed %d requests: median %s, p99 %s, p99.9 %s; drive utilization %.1f%%\n",
		sample.N(), stats.FormatDuration(sample.Median()),
		stats.FormatDuration(sample.Quantile(0.99)), stats.FormatDuration(sample.P999()),
		100*u.Utilization())
}

// check exits 1 with err on stderr when err is set.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
