// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per artifact), plus ablation benches for
// the design choices DESIGN.md calls out. Each simulation benchmark
// runs the corresponding experiment at a reduced scale; run
// cmd/silica-sim for the full-scale numbers recorded in
// EXPERIMENTS.md.
package silica_test

import (
	"testing"

	"silica/internal/controller"
	"silica/internal/experiments"
	"silica/internal/ldpc"
	"silica/internal/library"
	"silica/internal/media"
	"silica/internal/nc"
	"silica/internal/sim"
	"silica/internal/workload"
)

// benchScale keeps each simulated point under a second.
func benchScale() experiments.Scale {
	return experiments.Scale{TraceScale: 0.5, Duration: 1800, Platters: 500, Seed: 1}
}

func BenchmarkFig1aWriteReadRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1a(uint64(i))
		if r.MeanBytesRatio < 10 {
			b.Fatal("writes should dominate")
		}
	}
}

func BenchmarkFig1bReadSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1b(100000, uint64(i))
		if r.SmallReads < 0.5 {
			b.Fatal("small files should dominate reads")
		}
	}
}

func BenchmarkFig1cTailOverMedian(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1c(uint64(i))
		if len(r.Ratios) != 30 {
			b.Fatal("30 data centers expected")
		}
	}
}

func BenchmarkFig2IngressSmoothing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2(uint64(i))
		if r.Ratios[0] <= r.Ratios[len(r.Ratios)-1] {
			b.Fatal("peak/mean should shrink with window")
		}
	}
}

func BenchmarkFig3Mechanics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3(5000, uint64(i))
		if r.Crab.Max() > 3.02+1e-9 {
			b.Fatal("crab calibration broken")
		}
	}
}

func BenchmarkTable1PlatterSets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table1()
		if r.Rows[1].StorageRacks != 7 {
			b.Fatal("16+3 should need 7 racks")
		}
	}
}

func BenchmarkDurabilityMath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Durability()
		if r.TrackFailP > 1e-12 {
			b.Fatal("durability regression")
		}
	}
}

func BenchmarkFig5aDriveThroughputIOPS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5a(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5bDriveThroughputVolume(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5b(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5cShuttleSweepIOPS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5c(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5dShuttleSweepVolume(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5d(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6DriveUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if u := r.Rows[workload.Typical]; u.Utilization() < 0.9 {
			b.Fatalf("utilization %v too low", u.Utilization())
		}
	}
}

func BenchmarkFig7aCongestion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7a(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		last := len(r.Shuttles) - 1
		if r.SP[last] <= r.Silica[last] {
			b.Fatal("SP should congest more than Silica")
		}
	}
}

func BenchmarkFig7bPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7b(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if r.Saving[len(r.Saving)-1] <= 0 {
			b.Fatal("Silica should save energy over SP")
		}
	}
}

func BenchmarkFig7cWorkStealing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7c(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Unavailability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9FullLibrary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations -------------------------------------------------------

// runOnce drives one library configuration with one trace and reports
// the tail.
func runOnce(b *testing.B, mutate func(*library.Config), profile workload.Profile, zipf float64) float64 {
	b.Helper()
	cfg := library.DefaultConfig()
	cfg.Platters = 500
	cfg.Seed = 11
	mutate(&cfg)
	lib, err := library.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := workload.Generate(workload.TraceConfig{
		Profile:       profile,
		Duration:      1800,
		Platters:      cfg.Platters,
		TracksPerFile: workload.TracksFor(10e6),
		TrackBytes:    10e6,
		ZipfSkew:      zipf,
		RateScale:     0.5,
		Seed:          11,
	})
	if err != nil {
		b.Fatal(err)
	}
	// No warm-up or cool-down: every request is in the core interval.
	reqs, core := tr.CoreRun()
	lib.RunTrace(reqs, tr.CoreEnd)
	return core.P999()
}

// BenchmarkAblationStealingMode compares reactive (default) vs
// proactive work stealing under Zipf skew.
func BenchmarkAblationStealingMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reactive := runOnce(b, func(c *library.Config) { c.ProactiveStealing = false }, workload.Volume, 2.5)
		proactive := runOnce(b, func(c *library.Config) { c.ProactiveStealing = true }, workload.Volume, 2.5)
		b.ReportMetric(reactive, "reactive-tail-s")
		b.ReportMetric(proactive, "proactive-tail-s")
	}
}

// BenchmarkAblationPrefetch measures the mount-pipelining knob.
func BenchmarkAblationPrefetch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		off := runOnce(b, func(c *library.Config) { c.Shuttles = 40; c.Prefetch = false }, workload.IOPS, 0)
		on := runOnce(b, func(c *library.Config) { c.Shuttles = 40; c.Prefetch = true }, workload.IOPS, 0)
		b.ReportMetric(off, "prefetch-off-tail-s")
		b.ReportMetric(on, "prefetch-on-tail-s")
	}
}

// BenchmarkAblationFastSwitch quantifies what verification would cost
// without dual-mounted fast switching: utilization collapses to reads
// only.
func BenchmarkAblationFastSwitch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := library.DefaultConfig()
		cfg.Platters = 500
		for _, verify := range []bool{true, false} {
			cfg.Verification = verify
			lib, err := library.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			tr, err := workload.Generate(workload.TraceConfig{
				Profile: workload.Typical, Duration: 1800, Platters: cfg.Platters,
				TracksPerFile: workload.TracksFor(10e6), TrackBytes: 10e6,
				RateScale: 0.5, Seed: 11,
			})
			if err != nil {
				b.Fatal(err)
			}
			reqs := make([]*controller.Request, len(tr.Requests))
			copy(reqs, tr.Requests)
			lib.RunTrace(reqs, tr.CoreEnd)
			u := lib.DriveUtilization(lib.Sim().Now())
			if verify {
				b.ReportMetric(u.Utilization()*100, "util-with-verify-%")
			} else {
				b.ReportMetric(u.Utilization()*100, "util-without-verify-%")
			}
		}
	}
}

// BenchmarkAblationNCGroupSize sweeps the within-track group size at
// fixed ~8% overhead: large groups buy orders of magnitude in track
// durability (the §5 binomial argument).
func BenchmarkAblationNCGroupSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		small := nc.GroupLossProb(nc.LevelParams{I: 25, R: 2}, 1e-3)
		big := nc.GroupLossProb(nc.LevelParams{I: 100, R: 8}, 1e-3)
		if big >= small {
			b.Fatal("bigger groups should be more durable at equal overhead")
		}
		b.ReportMetric(small, "loss-p-25+2")
		b.ReportMetric(big, "loss-p-100+8")
	}
}

// BenchmarkAblationLDPCIterations measures the decode-iteration budget
// against residual sector failures on a noisy channel, through the
// sector codec the service runs: eight flipped bits in every block.
func BenchmarkAblationLDPCIterations(b *testing.B) {
	code, err := ldpc.NewCode(512, 384, 1)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := ldpc.NewSectorCodec(code, 1000)
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(5)
	payload := make([]byte, sc.PayloadBytes)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	coded := sc.EncodeSectorInto(payload, make([]uint8, sc.EncodedBits()))
	buf := make([]byte, sc.PayloadBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, iters := range []int{5, 50} {
			fails := 0
			for trial := 0; trial < 20; trial++ {
				rx := append([]uint8(nil), coded...)
				for blk := 0; blk < sc.Blocks(); blk++ {
					for _, j := range rng.Perm(code.N)[:8] {
						rx[blk*code.N+j] ^= 1
					}
				}
				if res := sc.DecodeSectorInto(ldpc.HardLLR(rx, 2), iters, buf); !res.OK {
					fails++
				}
			}
			if iters == 5 {
				b.ReportMetric(float64(fails), "fails-5-iters")
			} else {
				b.ReportMetric(float64(fails), "fails-50-iters")
			}
		}
	}
}

// BenchmarkSchedulerThroughput measures raw scheduler operations.
func BenchmarkSchedulerThroughput(b *testing.B) {
	s := controller.NewScheduler(20)
	rng := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &controller.Request{
			ID: controller.RequestID(i), Platter: media.PlatterID(rng.Intn(4000)),
			Bytes: 1e6, Arrival: float64(i),
		}
		s.Add(r, rng.Intn(20))
		if i%8 == 0 {
			if p, ok := s.SelectPlatter(rng.Intn(20), nil); ok {
				s.Take(p)
			}
		}
	}
}

// BenchmarkTapeVsSilica regenerates the §1-2 motivating comparison.
func BenchmarkTapeVsSilica(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.TapeVsSilica(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if r.IOPSSilica >= r.IOPSTape {
			b.Fatal("silica should beat tape on IOPS")
		}
		if r.DRTape >= r.DRSilica {
			b.Fatal("tape should beat silica on disaster recovery")
		}
	}
}

// BenchmarkAblationSuite runs the design-choice sweep table.
func BenchmarkAblationSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablations(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}
