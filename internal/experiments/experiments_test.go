package experiments

import (
	"strings"
	"testing"

	"silica/internal/workload"
)

// The tests here assert the *shape* of every reproduced figure at
// QuickScale: orderings, plateaus, and crossovers that the paper
// reports. Absolute values are checked loosely; EXPERIMENTS.md records
// the full-scale numbers.

// sloSeconds is the paper's service-level objective, 15 hours to last
// byte (§7), in seconds.
const sloSeconds = 15 * 3600

func quick() Scale { return QuickScale() }

func TestFig1aShape(t *testing.T) {
	r := Fig1a(1)
	if len(r.Months) != 6 {
		t.Fatalf("months = %d", len(r.Months))
	}
	if r.MeanBytesRatio < 25 || r.MeanBytesRatio > 80 {
		t.Fatalf("mean byte ratio = %v, want ~47", r.MeanBytesRatio)
	}
	if r.MeanOpsRatio < 100 || r.MeanOpsRatio > 280 {
		t.Fatalf("mean ops ratio = %v, want ~174", r.MeanOpsRatio)
	}
	if !strings.Contains(r.String(), "paper: 47") {
		t.Fatal("report should cite the paper target")
	}
}

func TestFig1bShape(t *testing.T) {
	r := Fig1b(100000, 1)
	if r.SmallReads < 0.5 || r.SmallReads > 0.65 {
		t.Fatalf("small read share = %v", r.SmallReads)
	}
	if r.SmallBytes > 0.03 {
		t.Fatalf("small byte share = %v", r.SmallBytes)
	}
	if r.LargeBytes < 0.7 {
		t.Fatalf("large byte share = %v", r.LargeBytes)
	}
	if r.LargeReads > 0.04 {
		t.Fatalf("large read share = %v", r.LargeReads)
	}
}

func TestFig1cShape(t *testing.T) {
	r := Fig1c(1)
	if len(r.Ratios) != 30 {
		t.Fatalf("DCs = %d", len(r.Ratios))
	}
	if r.Ratios[0] < 1e5 || r.Ratios[29] > 1e4 {
		t.Fatalf("heterogeneity range [%v, %v]", r.Ratios[29], r.Ratios[0])
	}
}

func TestFig2Shape(t *testing.T) {
	r := Fig2(1)
	first, last := r.Ratios[0], r.Ratios[len(r.Ratios)-1]
	if first < 8 {
		t.Fatalf("1-day peak/mean = %v, want ~16", first)
	}
	if last > 3.5 {
		t.Fatalf("60-day peak/mean = %v, want ~2", last)
	}
}

func TestFig3Calibration(t *testing.T) {
	r := Fig3(20000, 1)
	if r.Crab.Max() > 3.02+1e-9 || r.Crab.Quantile(0.86) > 3.005 {
		t.Fatalf("crab: p86=%v max=%v", r.Crab.Quantile(0.86), r.Crab.Max())
	}
	d := r.Pick.Mean() - r.Place.Mean()
	if d < 0.15 || d > 0.19 {
		t.Fatalf("pick-place delta = %v", d)
	}
	if m := r.Seek.Median(); m < 0.55 || m > 0.65 {
		t.Fatalf("seek median = %v", m)
	}
	// Horizontal: longer distances take longer.
	if r.HorizontalTimes[12] <= r.HorizontalTimes[1] {
		t.Fatal("horizontal model not monotone")
	}
}

func TestTable1Exact(t *testing.T) {
	r := Table1()
	want := []Table1Row{
		{Info: 12, Red: 3, WriteOverhead: 0.25, StorageRacks: 6},
		{Info: 16, Red: 3, WriteOverhead: 0.1875, StorageRacks: 7},
		{Info: 24, Red: 3, WriteOverhead: 0.125, StorageRacks: 10},
	}
	for i, w := range want {
		g := r.Rows[i]
		if g.Info != w.Info || g.Red != w.Red || g.StorageRacks != w.StorageRacks {
			t.Fatalf("row %d = %+v, want %+v", i, g, w)
		}
		if diff := g.WriteOverhead - w.WriteOverhead; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("row %d overhead = %v, want %v", i, g.WriteOverhead, w.WriteOverhead)
		}
	}
}

func TestDurabilityNumbers(t *testing.T) {
	r := Durability()
	if r.TrackFailP > 1e-12 || r.TrackFailP <= 0 {
		t.Fatalf("track failure p = %v", r.TrackFailP)
	}
	if ov := r.Overheads["in-platter"]; ov < 0.08 || ov > 0.12 {
		t.Fatalf("in-platter overhead = %v, want ~10%%", ov)
	}
}

func TestFig5aShape(t *testing.T) {
	r, err := Fig5a(quick())
	if err != nil {
		t.Fatal(err)
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	// NS below Silica everywhere; both within SLO at every throughput
	// (the paper's headline: even 30 MB/s drives suffice for IOPS).
	for _, p := range r.Points {
		if p.NS >= p.Silica {
			t.Fatalf("NS (%v) should beat Silica (%v) at %v MB/s", p.NS, p.Silica, p.X)
		}
		if p.Silica > sloSeconds {
			t.Fatalf("IOPS at %v MB/s misses SLO: %v", p.X, p.Silica)
		}
	}
	// Plateau: 210 MB/s is not much better than 60 (shuttle-bound).
	var at60 float64
	for _, p := range r.Points {
		if p.X == 60 {
			at60 = p.Silica
		}
	}
	if last.Silica < at60/3 {
		t.Fatalf("no plateau: 210 MB/s (%v) much faster than 60 (%v)", last.Silica, at60)
	}
	_ = first
}

func TestFig5bShape(t *testing.T) {
	r, err := Fig5b(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Volume is bandwidth-bound: 30 MB/s must be clearly worse than
	// 120 MB/s, with improvements tailing off after that.
	var at30, at120, at210 float64
	for _, p := range r.Points {
		switch p.X {
		case 30:
			at30 = p.Silica
		case 120:
			at120 = p.Silica
		case 210:
			at210 = p.Silica
		}
	}
	if at30 <= at120 {
		t.Fatalf("30 MB/s (%v) should be slower than 120 (%v)", at30, at120)
	}
	if at210 < at120/2 {
		t.Fatalf("gains should tail off: 210 = %v vs 120 = %v", at210, at120)
	}
}

func TestFig5cShape(t *testing.T) {
	r, err := Fig5c(quick())
	if err != nil {
		t.Fatal(err)
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if first.Silica <= last.Silica {
		t.Fatalf("more shuttles should reduce IOPS tail: 8 -> %v, 40 -> %v", first.Silica, last.Silica)
	}
	for _, p := range r.Points {
		if p.SP <= p.Silica {
			t.Fatalf("SP (%v) should trail Silica (%v) at %v shuttles", p.SP, p.Silica, p.X)
		}
		if p.NS >= p.Silica {
			t.Fatalf("NS should be the lower bound at %v shuttles", p.X)
		}
	}
}

func TestFig5dShape(t *testing.T) {
	r, err := Fig5d(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Points {
		if p.NS >= p.Silica {
			t.Fatalf("NS should be the lower bound at %v shuttles", p.X)
		}
	}
	// With enough shuttles the Volume trace completes within SLO.
	if last := r.Points[len(r.Points)-1]; last.Silica > sloSeconds {
		t.Fatalf("40 shuttles still miss SLO: %v", last.Silica)
	}
}

func TestFig6Shape(t *testing.T) {
	r, err := Fig6(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []workload.Profile{workload.Typical, workload.IOPS, workload.Volume} {
		u := r.Rows[p]
		if u.Utilization() < 0.90 {
			t.Fatalf("%v utilization = %v, want >90%%", p, u.Utilization())
		}
		if u.Verify < u.Read {
			t.Fatalf("%v: verify (%v) should dominate reads (%v)", p, u.Verify, u.Read)
		}
	}
	// Volume reads more than Typical.
	if r.Rows[workload.Volume].Read <= r.Rows[workload.Typical].Read {
		t.Fatal("volume should spend more drive time reading than typical")
	}
}

func TestFig7aShape(t *testing.T) {
	r, err := Fig7a(quick())
	if err != nil {
		t.Fatal(err)
	}
	n := len(r.Shuttles)
	// SP grows with shuttles and exceeds Silica everywhere.
	if r.SP[n-1] <= r.SP[0] {
		t.Fatalf("SP congestion should grow: %v", r.SP)
	}
	for i := range r.Shuttles {
		if r.Silica[i] >= r.SP[i] {
			t.Fatalf("silica (%v) should beat SP (%v) at %d shuttles",
				r.Silica[i], r.SP[i], r.Shuttles[i])
		}
	}
	// One shuttle per partition keeps Silica congestion tiny.
	if r.Silica[0] > 0.10 {
		t.Fatalf("silica congestion at 8 shuttles = %v, want < 10%%", r.Silica[0])
	}
}

func TestFig7bShape(t *testing.T) {
	r, err := Fig7b(quick())
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range r.Saving {
		if s <= 0 || s >= 1 {
			t.Fatalf("saving at %d shuttles = %v, want within (0,1)", r.Shuttles[i], s)
		}
	}
	// Paper: savings improve as shuttles increase.
	if r.Saving[len(r.Saving)-1] <= r.Saving[0]/2 {
		t.Fatalf("savings should not collapse with shuttles: %v", r.Saving)
	}
}

func TestFig7cShape(t *testing.T) {
	r, err := Fig7c(quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.TailLB >= r.TailNoLB {
		t.Fatalf("work stealing (%v) should beat no-LB (%v)", r.TailLB, r.TailNoLB)
	}
	if r.TailNS >= r.TailLB {
		t.Fatalf("NS (%v) should be the lower bound (LB %v)", r.TailNS, r.TailLB)
	}
	if r.TravelTailLB <= r.TravelTailNoLB {
		t.Fatalf("stealing should lengthen tail travel: %v vs %v", r.TravelTailLB, r.TravelTailNoLB)
	}
	if r.StolenOps == 0 {
		t.Fatal("no work was stolen under skew")
	}
}

func TestFig8Shape(t *testing.T) {
	r, err := Fig8(quick())
	if err != nil {
		t.Fatal(err)
	}
	// IOPS stays within SLO even at 30 MB/s and 10% unavailability.
	iops30 := r.Tails[workload.IOPS][30]
	if iops30[len(iops30)-1] > sloSeconds {
		t.Fatalf("IOPS@30MB/s at 10%% = %v, should be within SLO", iops30[len(iops30)-1])
	}
	// Unavailability must hurt: 10% worse than 0% for Volume.
	vol30 := r.Tails[workload.Volume][30]
	if vol30[len(vol30)-1] <= vol30[0] {
		t.Fatalf("volume tails should grow with unavailability: %v", vol30)
	}
	// Faster drives help Volume under failures.
	vol60 := r.Tails[workload.Volume][60]
	if vol60[len(vol60)-1] >= vol30[len(vol30)-1] {
		t.Fatalf("60 MB/s (%v) should beat 30 MB/s (%v) at 10%%",
			vol60[len(vol60)-1], vol30[len(vol30)-1])
	}
}

func TestFig9Shape(t *testing.T) {
	r, err := Fig9(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, mbps := range []float64{30, 60, 120} {
		tails := r.Tails[mbps]
		// Higher read rates cannot be faster.
		if tails[len(tails)-1] < tails[0]/2 {
			t.Fatalf("%v MB/s: tails should grow with rate: %v", mbps, tails)
		}
	}
	// 60 MB/s handles the projected 1.6 r/s within SLO (paper: ~8 h).
	t60 := r.Tails[60]
	if t60[len(t60)-1] > sloSeconds {
		t.Fatalf("60 MB/s at 1.6 r/s = %v, want within SLO", t60[len(t60)-1])
	}
}

func TestReportsRenderTables(t *testing.T) {
	// Smoke-test every String method.
	sc := quick()
	r5, err := Fig5a(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{
		Fig1a(1).String(), Fig1b(10000, 1).String(), Fig1c(1).String(),
		Fig2(1).String(), Fig3(1000, 1).String(), Table1().String(),
		Durability().String(), r5.String(),
	} {
		if !strings.Contains(s, "\n") || len(s) < 40 {
			t.Fatalf("suspiciously short report: %q", s)
		}
	}
}

func TestAblations(t *testing.T) {
	r, err := Ablations(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 9 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byName := map[string]AblationRow{}
	for _, row := range r.Rows {
		byName[row.Name] = row
		if row.Tail <= 0 {
			t.Fatalf("%s: degenerate tail", row.Name)
		}
	}
	// No stealing under skew must be the worst of the stealing trio.
	none := byName["no stealing"]
	reactive := byName["reactive stealing (default)"]
	if none.Tail <= reactive.Tail {
		t.Fatalf("no-stealing (%v) should trail reactive stealing (%v) under skew",
			none.Tail, reactive.Tail)
	}
	// Verification off collapses utilization; on keeps it high.
	von := byName["verification on (fast switch)"]
	voff := byName["verification off"]
	if von.Utilization < 0.9 || voff.Utilization > 0.5 {
		t.Fatalf("verification ablation utilizations: on=%v off=%v",
			von.Utilization, voff.Utilization)
	}
	if len(r.String()) < 100 {
		t.Fatal("report too short")
	}
}

// TestTapeVsSilica pins the paper's motivating argument (§1-2): on the
// small-read cloud archival workload Silica beats tape decisively,
// while tape keeps its edge on classic big-restore disaster recovery.
func TestTapeVsSilica(t *testing.T) {
	r, err := TapeVsSilica(quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.IOPSSilica >= r.IOPSTape {
		t.Fatalf("IOPS: silica (%v) should beat tape (%v)", r.IOPSSilica, r.IOPSTape)
	}
	if r.IOPSTape < 4*r.IOPSSilica {
		t.Fatalf("IOPS gap should be large: tape %v vs silica %v", r.IOPSTape, r.IOPSSilica)
	}
	if r.DRTape >= r.DRSilica {
		t.Fatalf("DR: tape (%v) should beat silica (%v)", r.DRTape, r.DRSilica)
	}
	if r.TapeMountsIO == 0 {
		t.Fatal("tape run recorded no mounts")
	}
}
