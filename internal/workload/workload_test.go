package workload

import (
	"math"
	"testing"

	"silica/internal/sim"
)

// TestSizeModelMatchesFigure1b pins the published statistics: 58.7% of
// reads are ≤ 4 MiB but carry only ~1.2% of bytes; files > 256 MiB
// carry ~85% of bytes in < 2% of reads; the mean file is ~100 MB.
func TestSizeModelMatchesFigure1b(t *testing.T) {
	m := DefaultSizeModel()
	r := sim.NewRNG(1)
	const n = 400000
	var smallCount, largeCount int
	var smallBytes, largeBytes, total float64
	for i := 0; i < n; i++ {
		s := m.Sample(r)
		fs := float64(s)
		total += fs
		if s <= 4*MiB {
			smallCount++
			smallBytes += fs
		}
		if s > 256*MiB {
			largeCount++
			largeBytes += fs
		}
	}
	smallFrac := float64(smallCount) / n
	if smallFrac < 0.55 || smallFrac > 0.62 {
		t.Fatalf("small-file read share = %v, want ~0.587", smallFrac)
	}
	if share := smallBytes / total; share > 0.02 {
		t.Fatalf("small-file byte share = %v, want ~0.012", share)
	}
	largeFrac := float64(largeCount) / n
	if largeFrac > 0.03 {
		t.Fatalf("large-file read share = %v, want < 0.02-0.03", largeFrac)
	}
	if share := largeBytes / total; share < 0.75 || share > 0.92 {
		t.Fatalf("large-file byte share = %v, want ~0.85", share)
	}
	mean := total / n
	if mean < 60e6 || mean > 160e6 {
		t.Fatalf("mean file size = %v, want ~100 MB", mean)
	}
}

func TestSizeModelRange(t *testing.T) {
	m := DefaultSizeModel()
	r := sim.NewRNG(2)
	for i := 0; i < 100000; i++ {
		s := m.Sample(r)
		if s < 1 || s > 16*TiB {
			t.Fatalf("size %d out of range", s)
		}
	}
}

func TestSizeModelLongTail(t *testing.T) {
	// §2: "~10 orders of magnitude between the smallest and largest
	// requested file sizes". Our model spans ~256 KiB to 16 TiB
	// (~7.5 orders); check multiple TiB-range files actually appear.
	m := DefaultSizeModel()
	r := sim.NewRNG(3)
	sawTiB := false
	for i := 0; i < 2000000 && !sawTiB; i++ {
		if m.Sample(r) > 1*TiB {
			sawTiB = true
		}
	}
	if !sawTiB {
		t.Fatal("no TiB-scale files in 2M samples")
	}
}

// TestMonthlyIOMatchesFigure1a pins the write dominance: ~47x by
// bytes, ~174x by ops, with writes always >10x reads.
func TestMonthlyIOMatchesFigure1a(t *testing.T) {
	months := GenerateMonthlyIO(240, 1)
	var bsum, osum float64
	for _, m := range months {
		br, or := m.BytesRatio(), m.OpsRatio()
		if br < 10 {
			t.Fatalf("month byte ratio %v: writes must dominate by >10x", br)
		}
		bsum += br
		osum += or
	}
	bmean := bsum / float64(len(months))
	omean := osum / float64(len(months))
	if bmean < 35 || bmean > 65 {
		t.Fatalf("mean byte ratio = %v, want ~47", bmean)
	}
	if omean < 130 || omean > 230 {
		t.Fatalf("mean ops ratio = %v, want ~174", omean)
	}
}

// TestDataCenterHeterogeneity pins Figure 1(c): across 30 DCs the
// tail/median ratios span several orders of magnitude, up to ~10^7.
func TestDataCenterHeterogeneity(t *testing.T) {
	ratios := DataCenterHeterogeneity(30, 4320, 1) // 6 months of hours
	if len(ratios) != 30 {
		t.Fatalf("got %d DCs", len(ratios))
	}
	// Ranked descending.
	for i := 1; i < len(ratios); i++ {
		if ratios[i] > ratios[i-1] {
			t.Fatal("ratios not ranked descending")
		}
	}
	top, bottom := ratios[0], ratios[len(ratios)-1]
	if top < 1e5 {
		t.Fatalf("top DC ratio = %v, want >= 1e5", top)
	}
	if bottom > 1e4 {
		t.Fatalf("bottom DC ratio = %v, want <= 1e4", bottom)
	}
	if span := math.Log10(top / bottom); span < 3 {
		t.Fatalf("ratio span = %v orders, want >= 3", span)
	}
}

// TestDailyIngressMatchesFigure2 pins the burst structure: peak/mean
// ~16 at 1-day windows decaying to ~2 at 30+ days.
func TestDailyIngressMatchesFigure2(t *testing.T) {
	daily := DailyIngress(360, 1)
	curve := PeakOverMeanCurve(daily, []int{1, 5, 10, 30, 60})
	if curve[0] < 8 || curve[0] > 25 {
		t.Fatalf("1-day peak/mean = %v, want ~16", curve[0])
	}
	if curve[3] > 3.5 {
		t.Fatalf("30-day peak/mean = %v, want ~2", curve[3])
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1]+1e-9 {
			t.Fatalf("curve not decreasing: %v", curve)
		}
	}
}

func TestReadSizeCharacterization(t *testing.T) {
	h := ReadSizeCharacterization(50000, 1)
	if h.TotalCount() != 50000 {
		t.Fatalf("count = %d", h.TotalCount())
	}
	cs := h.CountShare()
	if cs[0] < 0.5 {
		t.Fatalf("first bucket share = %v, small files should dominate", cs[0])
	}
}

func traceConfig(p Profile) TraceConfig {
	return TraceConfig{
		Profile:       p,
		Duration:      12 * 3600,
		Warmup:        3600,
		Cooldown:      3600,
		Platters:      4000,
		TracksPerFile: TracksFor(10e6),
		TrackBytes:    10e6,
		Seed:          7,
	}
}

func TestGenerateProfileRatios(t *testing.T) {
	volumes := map[Profile]float64{}
	counts := map[Profile]int{}
	for _, p := range []Profile{Typical, IOPS, Volume} {
		tr, err := Generate(traceConfig(p))
		if err != nil {
			t.Fatal(err)
		}
		var bytes int64
		n := 0
		seen := map[int64]bool{} // count files, not shards: group by arrival
		for _, r := range tr.Requests {
			if !tr.InCore(r) {
				continue
			}
			bytes += r.Bytes
			key := int64(r.Arrival * 1e6)
			if !seen[key] {
				seen[key] = true
				n++
			}
		}
		volumes[p] = float64(bytes)
		counts[p] = n
	}
	// §7.2: IOPS ≈ 10x more reads per volume than Typical; Volume ≈
	// 25x the volume in ≈5x the count. Tolerances are loose: the trace
	// is stochastic.
	iopsRatio := (float64(counts[IOPS]) / volumes[IOPS]) / (float64(counts[Typical]) / volumes[Typical])
	if iopsRatio < 5 || iopsRatio > 20 {
		t.Fatalf("IOPS reads-per-byte ratio = %v, want ~10", iopsRatio)
	}
	volRatio := volumes[Volume] / volumes[Typical]
	if volRatio < 15 || volRatio > 40 {
		t.Fatalf("Volume byte ratio = %v, want ~25", volRatio)
	}
	cntRatio := float64(counts[Volume]) / float64(counts[Typical])
	if cntRatio < 3 || cntRatio > 8 {
		t.Fatalf("Volume count ratio = %v, want ~5", cntRatio)
	}
}

func TestGenerateArrivalsSortedAndBounded(t *testing.T) {
	tr, err := Generate(traceConfig(IOPS))
	if err != nil {
		t.Fatal(err)
	}
	end := 3600.0 + 12*3600 + 3600
	last := 0.0
	for _, r := range tr.Requests {
		if r.Arrival < last {
			t.Fatal("arrivals not sorted")
		}
		last = r.Arrival
		if r.Arrival >= end {
			t.Fatalf("arrival %v past trace end", r.Arrival)
		}
		if r.TrackCount < 1 || r.Bytes < 1 {
			t.Fatalf("degenerate request %+v", r)
		}
		if int(r.Platter) < 0 || int(r.Platter) >= 4000 {
			t.Fatalf("platter %d out of range", r.Platter)
		}
	}
}

func TestGenerateSharding(t *testing.T) {
	cfg := traceConfig(Volume)
	cfg.MaxShardTracks = 50
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxTracks := 0
	shardsSeen := false
	byArrival := map[float64][]int{}
	for _, r := range tr.Requests {
		if r.TrackCount > maxTracks {
			maxTracks = r.TrackCount
		}
		byArrival[r.Arrival] = append(byArrival[r.Arrival], int(r.Platter))
	}
	if maxTracks > 50 {
		t.Fatalf("request spans %d tracks, shard cap is 50", maxTracks)
	}
	for _, platters := range byArrival {
		if len(platters) > 1 {
			shardsSeen = true
			// Shards of one file land on distinct platters.
			seen := map[int]bool{}
			for _, p := range platters {
				if seen[p] {
					t.Fatalf("file shards share platter %d", p)
				}
				seen[p] = true
			}
		}
	}
	if !shardsSeen {
		t.Fatal("volume trace produced no sharded files")
	}
}

func TestGenerateZipfSkew(t *testing.T) {
	cfg := traceConfig(Volume)
	cfg.ZipfSkew = 3.0
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, r := range tr.Requests {
		counts[int(r.Platter)]++
	}
	// §7.5: "the most accessed platter has an order of magnitude more
	// data read than the second most accessed" — require strong skew.
	var top1, top2 int
	for _, c := range counts {
		if c > top1 {
			top1, top2 = c, top1
		} else if c > top2 {
			top2 = c
		}
	}
	if top1 < 3*top2 {
		t.Fatalf("zipf skew too weak: top platters %d vs %d", top1, top2)
	}
}

func TestGenerateRateScale(t *testing.T) {
	small := traceConfig(Typical)
	small.RateScale = 0.1
	trS, err := Generate(small)
	if err != nil {
		t.Fatal(err)
	}
	big := traceConfig(Typical)
	big.RateScale = 1
	trB, err := Generate(big)
	if err != nil {
		t.Fatal(err)
	}
	if len(trS.Requests)*5 > len(trB.Requests) {
		t.Fatalf("rate scale ineffective: %d vs %d", len(trS.Requests), len(trB.Requests))
	}
}

func TestGenerateValidation(t *testing.T) {
	cfg := traceConfig(Typical)
	cfg.Duration = 0
	if _, err := Generate(cfg); err == nil {
		t.Fatal("zero duration accepted")
	}
	cfg = traceConfig(Typical)
	cfg.Platters = 0
	if _, err := Generate(cfg); err == nil {
		t.Fatal("zero platters accepted")
	}
}

func TestGeneratePoisson(t *testing.T) {
	tr := GeneratePoisson(1.6, 6*3600, 1800, 1800, 10000, 10, 10e6, 1)
	// Expected ~1.6 * total-duration arrivals.
	expected := 1.6 * (6*3600 + 3600)
	n := float64(len(tr.Requests))
	if n < expected*0.9 || n > expected*1.1 {
		t.Fatalf("poisson trace has %v requests, want ~%v", n, expected)
	}
	core := 0
	for _, r := range tr.Requests {
		if r.TrackCount != 10 {
			t.Fatalf("track count %d", r.TrackCount)
		}
		if tr.InCore(r) {
			core++
		}
	}
	wantCore := 1.6 * 6 * 3600
	if float64(core) < wantCore*0.85 || float64(core) > wantCore*1.15 {
		t.Fatalf("core requests = %d, want ~%v", core, wantCore)
	}
}

func TestInterArrivalBurstiness(t *testing.T) {
	// The §2-calibrated trace must be burstier than Poisson: the
	// coefficient of variation of inter-arrivals should exceed 1.
	tr, err := Generate(traceConfig(IOPS))
	if err != nil {
		t.Fatal(err)
	}
	gaps := make([]float64, 0, len(tr.Requests))
	var mean float64
	for i := 1; i < len(tr.Requests); i++ {
		gap := tr.Requests[i].Arrival - tr.Requests[i-1].Arrival
		gaps = append(gaps, gap)
		mean += gap
	}
	mean /= float64(len(gaps))
	var ss float64
	for _, gap := range gaps {
		ss += (gap - mean) * (gap - mean)
	}
	cv := math.Sqrt(ss/float64(len(gaps))) / mean
	if cv < 1.05 {
		t.Fatalf("inter-arrival CV = %v, trace not bursty", cv)
	}
}

func TestProfileString(t *testing.T) {
	if Typical.String() != "typical" || IOPS.String() != "iops" || Volume.String() != "volume" {
		t.Fatal("profile names")
	}
}

func TestTracksFor(t *testing.T) {
	f := TracksFor(10e6)
	if f(1) != 1 || f(10e6) != 1 || f(10e6+1) != 2 || f(95e6) != 10 {
		t.Fatal("track conversion wrong")
	}
}
