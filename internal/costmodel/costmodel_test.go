package costmodel

import (
	"strings"
	"testing"
)

func TestSilicaBeatsTapeOverDecades(t *testing.T) {
	// The paper's thesis: over archival horizons, glass is
	// fundamentally cheaper than tape because background management
	// dominates tape costs.
	w := DefaultWorkload()
	tape := Evaluate(Tape(), w)
	silica := Evaluate(Silica(), w)
	if silica.Total() >= tape.Total() {
		t.Fatalf("silica %v should beat tape %v over %v years",
			silica.Total(), tape.Total(), w.HorizonYears)
	}
	if silica.CarbonKg >= tape.CarbonKg {
		t.Fatalf("silica carbon %v should beat tape %v", silica.CarbonKg, tape.CarbonKg)
	}
}

func TestTapeCostsGrowWithHorizon(t *testing.T) {
	// §1: "the environmental and financial costs of storing archival
	// data on magnetic media increase over time". Cost per TB-year
	// should RISE with horizon for tape (more migrations, more
	// scrubbing) and stay ~flat for silica.
	// Fix the archive (no ingress) so the metric isolates the cost of
	// keeping the same bytes alive.
	short := DefaultWorkload()
	short.HorizonYears = 10
	short.WriteTBPerYear = 0
	long := DefaultWorkload()
	long.HorizonYears = 100
	long.WriteTBPerYear = 0

	tapeShort := Evaluate(Tape(), short).Total()
	tapeLong := Evaluate(Tape(), long).Total()
	silicaShort := Evaluate(Silica(), short).Total()
	silicaLong := Evaluate(Silica(), long).Total()
	// Silica's spend is front-loaded (write once, leave in situ): its
	// marginal cost per extra decade must be far below tape's, so the
	// tape/silica ratio widens with horizon.
	if tapeLong/silicaLong <= tapeShort/silicaShort {
		t.Fatalf("tape/silica ratio should widen: %v -> %v",
			tapeShort/silicaShort, tapeLong/silicaLong)
	}
	tapeMarginal := (tapeLong - tapeShort) / 90
	silicaMarginal := (silicaLong - silicaShort) / 90
	if silicaMarginal >= tapeMarginal/5 {
		t.Fatalf("silica marginal yearly cost %v should be a small fraction of tape's %v",
			silicaMarginal, tapeMarginal)
	}
}

func TestMigrationAccounting(t *testing.T) {
	w := DefaultWorkload()
	w.HorizonYears = 50
	tape := Evaluate(Tape(), w)
	// 10-year media over 50 years: 5 migrations.
	if tape.Migrations != 5 {
		t.Fatalf("migrations = %d, want 5", tape.Migrations)
	}
	if tape.MigrationIO <= 0 {
		t.Fatal("migrations must cost IO")
	}
	silica := Evaluate(Silica(), w)
	if silica.Migrations != 0 || silica.MigrationIO != 0 {
		t.Fatalf("silica should never migrate: %+v", silica)
	}
}

func TestScrubbingOnlyOnTape(t *testing.T) {
	w := DefaultWorkload()
	tape := Evaluate(Tape(), w)
	silica := Evaluate(Silica(), w)
	if tape.Scrubbing <= 0 {
		t.Fatal("tape must scrub")
	}
	if silica.Scrubbing != 0 {
		t.Fatal("glass has no bit rot: no scrubbing")
	}
}

func TestSilicaPaysVerificationAndWritePremium(t *testing.T) {
	// §3.1 and §9: silica verifies every written byte, and its write
	// drives are the expensive component. BuildTable2 grades Silica's
	// write Medium against tape's Low and grades no Silica row High;
	// ROADMAP item 23 tracks that deviation from the paper's table.
	w := DefaultWorkload()
	w.ReadTBPerYear = 0
	tape := Evaluate(Tape(), w)
	silica := Evaluate(Silica(), w)
	// Pure-ingress UserIO: silica's per-TB write+verify exceeds
	// tape's write-only.
	if silica.UserIO <= tape.UserIO {
		t.Fatalf("silica write+verify (%v) should exceed tape write (%v) per ingested byte",
			silica.UserIO, tape.UserIO)
	}
}

func TestBreakdownTotalSums(t *testing.T) {
	b := Breakdown{Media: 1, MigrationIO: 2, Scrubbing: 3, Environmental: 4, UserIO: 5, Processing: 6}
	if b.Total() != 21 {
		t.Fatalf("total = %v", b.Total())
	}
}

func TestTable2Grades(t *testing.T) {
	tbl := BuildTable2()
	if len(tbl.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 (paper's Table 2)", len(tbl.Rows))
	}
	byDim := map[string]Table2Row{}
	for _, r := range tbl.Rows {
		byDim[r.Dimension] = r
	}
	// The paper's grades: tape H / silica L on manufacturing and
	// environmentals; write is the lone silica H/M-vs-tape dimension.
	for _, dim := range []string{
		"media manufacturing: financial",
		"media manufacturing: environmental",
		"media maintenance: DC environmentals",
	} {
		r := byDim[dim]
		if r.Tape <= r.Silica {
			t.Fatalf("%s: tape (%v) should grade above silica (%v)", dim, r.Tape, r.Silica)
		}
	}
	w := byDim["drive operations: write"]
	if w.Silica <= w.Tape {
		t.Fatalf("write: silica (%v) should grade above tape (%v)", w.Silica, w.Tape)
	}
	if !strings.Contains(tbl.String(), "tape") {
		t.Fatal("table should render")
	}
}

func TestLevelString(t *testing.T) {
	if Low.String() != "L" || Medium.String() != "M" || High.String() != "H" || Level(9).String() != "?" {
		t.Fatal("level names")
	}
}

// TestPerTBYearOrdering: on the default workload all three technologies
// cost something, and Silica comes out cheapest per TB-year, then tape,
// then HDD (the paper's headline claim). A 25x smaller archive costs
// less in total.
func TestPerTBYearOrdering(t *testing.T) {
	w := DefaultWorkload()
	techs := Technologies()
	if len(techs) != 3 {
		t.Fatalf("technologies = %d, want tape/hdd/silica", len(techs))
	}
	per := map[string]float64{}
	for _, tech := range techs {
		b := Evaluate(tech, w)
		if b.Total() <= 0 || CostPerTBYear(b, w) <= 0 {
			t.Fatalf("%s: non-positive cost %+v", b.Technology, b)
		}
		per[b.Technology] = CostPerTBYear(b, w)
	}
	if !(per["silica"] < per["tape"] && per["tape"] < per["hdd"]) {
		t.Fatalf("per-TB-year ordering wrong: %v", per)
	}
	small := Workload{ArchiveTB: 500, HorizonYears: 10, ReadTBPerYear: 5, WriteTBPerYear: 50}
	if Evaluate(techs[0], small).Total() >= Evaluate(techs[0], w).Total() {
		t.Fatal("a 25x smaller archive should not cost more")
	}
}

// TestHDDTechnology pins the §9 qualitative shape of the disk column:
// HDD migrates most often, pays the most for power, and is the most
// carbon-intensive to manufacture per stored TB over the horizon.
func TestHDDTechnology(t *testing.T) {
	wl := DefaultWorkload()
	tape := Evaluate(Tape(), wl)
	hdd := Evaluate(HDD(), wl)
	silica := Evaluate(Silica(), wl)
	if hdd.Migrations <= tape.Migrations || silica.Migrations != 0 {
		t.Fatalf("migrations: hdd=%d tape=%d silica=%d", hdd.Migrations, tape.Migrations, silica.Migrations)
	}
	if hdd.Environmental <= tape.Environmental {
		t.Fatal("always-spinning disks should cost more environmentally than tape")
	}
	if hdd.CarbonKg <= silica.CarbonKg {
		t.Fatal("hdd embodied carbon should exceed silica")
	}
}
