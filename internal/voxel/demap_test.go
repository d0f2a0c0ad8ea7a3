package voxel

import (
	"math"
	"runtime"
	"testing"

	"silica/internal/sim"
)

// exactLLRs is the specification LLRsInto is sampled from.
func exactLLRs(d *Demapper, received []Point) []float64 {
	return BitLLRs(d.Posteriors(received))
}

// llrTableTol bounds |table − exact| at the default operating point
// (measured ≈ 2e-4 against LLR magnitudes in the tens; the float32
// rounding adds at most ≈ 1e-5 more).
const llrTableTol = 1e-3

// demap runs LLRsInto on fresh buffers and checks the hard decision it
// packs against the LLRs' signs.
func demap(t testing.TB, d *Demapper, received []Point) []float32 {
	t.Helper()
	llr := make([]float32, len(received)*BitsPerVoxel)
	hard := make([]uint64, (len(received)+15)/16)
	d.LLRsInto(received, llr, hard)
	for i, x := range llr {
		if bit := hard[i>>6] >> (uint(i) & 63) & 1; (bit == 1) != (x < 0) {
			t.Fatalf("point %+v bit %d: LLR %v but hard decision %d", received[i/BitsPerVoxel], i%BitsPerVoxel, x, bit)
		}
	}
	return llr
}

func TestTableLLRsMatchExact(t *testing.T) {
	m := NewModulation()
	ch := DefaultChannel()
	d := NewDemapper(m, ch)
	rng := sim.NewRNG(12)
	syms := make([]uint8, 4096)
	for i := range syms {
		syms[i] = uint8(rng.Intn(numSymbols))
	}
	received := ch.TransmitInto(m, packSymbols(syms), len(syms), rng, nil)
	for i := 0; i < 4096; i++ {
		received = append(received, Point{A: rng.Range(-axisRange, axisRange), R: rng.Range(-axisRange, axisRange)})
	}
	fast := demap(t, d, received)
	var worst float64
	for i, want := range exactLLRs(d, received) {
		worst = math.Max(worst, math.Abs(float64(fast[i])-want))
	}
	if worst > llrTableTol {
		t.Fatalf("max |table - exact| = %v, want <= %v", worst, llrTableTol)
	}
}

func TestTableLLRSignsCleanChannel(t *testing.T) {
	m := NewModulation()
	d := NewDemapper(m, CleanChannel())
	var received []Point
	for s := 0; s < numSymbols; s++ {
		p := m.IdealPoint(uint8(s))
		for _, da := range [3]float64{-0.1, 0, 0.1} {
			for _, dr := range [3]float64{-0.1, 0, 0.1} {
				received = append(received, Point{A: p.A + da, R: p.R + dr})
			}
		}
	}
	fast := demap(t, d, received)
	for i, want := range exactLLRs(d, received) {
		if want == 0 || math.Signbit(float64(fast[i])) != math.Signbit(want) || fast[i] == 0 {
			t.Fatalf("point %+v bit %d: table LLR %v, exact %v", received[i/BitsPerVoxel], i%BitsPerVoxel, fast[i], want)
		}
	}
}

func TestReadSectorAllocations(t *testing.T) {
	p := servicePipeline(t, DefaultChannel())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sc := p.AcquireScratch()
	runtime.ReadMemStats(&after)
	defer p.ReleaseScratch(sc)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 200<<10 {
		t.Fatalf("AcquireScratch on an empty pool allocated %d bytes, want < 200 KiB", got)
	}
	syms := p.WriteSector(randomPayload(p.Codec.PayloadBytes, 13))
	rng := sim.NewRNG(13)
	buf := make([]byte, p.Codec.PayloadBytes)
	if n := testing.AllocsPerRun(20, func() { p.ReadSectorWithBuf(sc, syms, rng, buf) }); n != 0 {
		t.Fatalf("ReadSectorWithBuf with a caller buffer: %v allocations per read, want 0", n)
	}
}

// FuzzDemapLLRs feeds the table lookup arbitrary float64 bit patterns:
// it must never index outside the table, emit a non-finite or
// negative-zero LLR, or pack a hard decision that disagrees with one, and inside the table's range it must stay within
// tolerance of the exact path — hence agree on every decision that is
// not on a boundary.
func FuzzDemapLLRs(f *testing.F) {
	for _, seed := range [][2]float64{
		{0, 0}, {-1, 1.0 / 3}, {axisRange, -axisRange}, {3, -40},
		{math.NaN(), math.Inf(1)}, {math.Inf(-1), 1e308}, {5e-324, -5e-324},
		{math.Copysign(0, -1), math.Nextafter(axisRange, 3)},
	} {
		f.Add(math.Float64bits(seed[0]), math.Float64bits(seed[1]))
	}
	d := NewDemapper(NewModulation(), DefaultChannel())
	f.Fuzz(func(t *testing.T, aBits, rBits uint64) {
		y := []Point{{A: math.Float64frombits(aBits), R: math.Float64frombits(rBits)}}
		fast := demap(t, d, y)
		for b, x := range fast {
			if v := float64(x); math.IsNaN(v) || math.IsInf(v, 0) || (v == 0 && math.Signbit(v)) {
				t.Fatalf("%+v bit %d: LLR %v", y[0], b, v)
			}
		}
		if !(math.Abs(y[0].A) <= axisRange && math.Abs(y[0].R) <= axisRange) {
			return
		}
		for b, want := range exactLLRs(d, y) {
			if math.Abs(float64(fast[b])-want) > llrTableTol {
				t.Fatalf("%+v bit %d: table LLR %v, exact %v", y[0], b, fast[b], want)
			}
		}
	})
}
