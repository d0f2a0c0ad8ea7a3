package voxel

import (
	"math"
	"testing"

	"silica/internal/sim"
	"silica/internal/stats"
)

// The golden sector corpus pins the channel's draw stream;
// TestChannelMatchesModel pins its distribution. Every check is an
// interval derived from the model that a correct stream leaves with
// probability below 1e-5, so the test passes for any generator that
// draws what Channel documents and fails for one that does not, whatever
// order it draws in.

// modelZ is the two-sided normal deviate of every interval below.
const modelZ = 5

// chi2Bound is the Wilson–Hilferty approximation of the χ² quantile with
// dof degrees of freedom whose upper tail is that of a standard normal
// at z.
func chi2Bound(dof int, z float64) float64 {
	k := float64(dof)
	c := 2 / (9 * k)
	return k * math.Pow(1-c+z*math.Sqrt(c), 3)
}

// uniformChi2 is Pearson's χ² statistic of counts against equal expected
// counts.
func uniformChi2(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	expect := float64(total) / float64(len(counts))
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expect
		chi2 += d * d / expect
	}
	return chi2
}

func randomSymbols(n int, seed uint64) []uint8 {
	rng := sim.NewRNG(seed)
	syms := make([]uint8, n)
	for i := range syms {
		syms[i] = uint8(rng.Intn(numSymbols))
	}
	return syms
}

func TestChannelMatchesModel(t *testing.T) {
	m := NewModulation()

	t.Run("noise", func(t *testing.T) {
		// Sensor noise alone: the residual is N(0, σ²) per axis.
		const n = 1 << 17
		ch := Channel{Sigma: 0.16, Width: 64}
		syms := randomSymbols(n, 21)
		rx := ch.TransmitInto(m, packSymbols(syms), len(syms), sim.NewRNG(22), nil)
		// Equiprobable bins of the standard normal, for the shape check.
		const bins = 20
		edges := make([]float64, bins-1)
		for k := range edges {
			edges[k] = math.Sqrt2 * math.Erfinv(2*float64(k+1)/bins-1)
		}
		var counts [bins]int
		for axis := 0; axis < 2; axis++ {
			var sum, sumSq float64
			for i, y := range rx {
				p := m.IdealPoint(syms[i])
				d := y.A - p.A
				if axis == 1 {
					d = y.R - p.R
				}
				sum += d
				sumSq += d * d
				z, b := d/ch.Sigma, 0
				for b < len(edges) && z > edges[b] {
					b++
				}
				counts[b]++
			}
			mean := sum / n
			variance := sumSq/n - mean*mean
			if tol := modelZ * ch.Sigma / math.Sqrt(n); math.Abs(mean) > tol {
				t.Errorf("axis %d: residual mean %.5f, want |mean| <= %.5f", axis, mean, tol)
			}
			if tol := modelZ * math.Sqrt(2.0/n); math.Abs(variance/(ch.Sigma*ch.Sigma)-1) > tol {
				t.Errorf("axis %d: residual variance %.3g·σ², want within %.3g of σ²", axis, variance/(ch.Sigma*ch.Sigma), tol)
			}
		}
		if chi2, bound := uniformChi2(counts[:]), chi2Bound(bins-1, modelZ); chi2 > bound {
			t.Errorf("residual/σ against N(0, 1) over %d equiprobable bins: χ² = %.1f, want <= %.1f (counts %v)", bins, chi2, bound, counts)
		}
	})

	t.Run("missing", func(t *testing.T) {
		// Corner symbols through a near-noiseless channel: a formed voxel
		// reads (1, 1), a missing one reads N(0, background²) per axis.
		const n = 100000
		ch := Channel{Sigma: 1e-4, PMissing: 0.01, Width: 64}
		background := 2*ch.Sigma + 0.05
		syms := make([]uint8, n)
		for i := range syms {
			syms[i] = 10 // (1, 1)
		}
		missing := 0
		var sumSq float64
		for _, y := range ch.TransmitInto(m, packSymbols(syms), len(syms), sim.NewRNG(23), nil) {
			if math.Abs(y.A) < 0.5 && math.Abs(y.R) < 0.5 {
				missing++
				sumSq += y.A*y.A + y.R*y.R
			}
		}
		// P(X ≥ missing) and P(X ≤ missing) for X ~ Binomial(n, PMissing).
		upper := stats.BinomialTail(n, missing-1, ch.PMissing)
		lower := 1 - stats.BinomialTail(n, missing, ch.PMissing)
		if upper < 1e-6 || lower < 1e-6 {
			t.Errorf("%d of %d voxels missing at PMissing %v: P(≥) = %.2g, P(≤) = %.2g, want both ≥ 1e-6", missing, n, ch.PMissing, upper, lower)
		}
		variance := sumSq / float64(2*missing)
		if tol := modelZ * math.Sqrt(2/float64(2*missing)); math.Abs(variance/(background*background)-1) > tol {
			t.Errorf("missing-voxel background variance %.3g·background², want within %.3g of 1", variance/(background*background), tol)
		}
	})

	t.Run("scatter", func(t *testing.T) {
		// Scatter alone: the residual is Scatter times a uniformly drawn
		// symbol's ideal point.
		const n = 16 * 4000
		ch := Channel{Sigma: 1e-4, Scatter: 0.3, Width: 64}
		syms := randomSymbols(n, 24)
		var counts [numSymbols]int
		for i, y := range ch.TransmitInto(m, packSymbols(syms), len(syms), sim.NewRNG(25), nil) {
			p := m.IdealPoint(syms[i])
			off := Point{A: (y.A - p.A) / ch.Scatter, R: (y.R - p.R) / ch.Scatter}
			best, bestD := 0, math.Inf(1)
			for s := 0; s < numSymbols; s++ {
				q := m.IdealPoint(uint8(s))
				if d := math.Hypot(off.A-q.A, off.R-q.R); d < bestD {
					best, bestD = s, d
				}
			}
			if bestD > 0.01 {
				t.Fatalf("voxel %d: scatter offset %+v is no constellation point", i, off)
			}
			counts[best]++
		}
		if chi2, bound := uniformChi2(counts[:]), chi2Bound(numSymbols-1, modelZ); chi2 > bound {
			t.Errorf("scatter symbols over %d voxels: χ² = %.1f, want <= %.1f (counts %v)", n, chi2, bound, counts)
		}
	})

	t.Run("isi", func(t *testing.T) {
		// ISI alone is deterministic: each voxel gains ISI times the mean
		// ideal point of its in-grid neighbours, the horizontal ones taken
		// from its own row only. The last row is ragged.
		const w = 64
		ch := Channel{Sigma: 1e-12, ISI: 0.08, Width: w}
		syms := randomSymbols(20*w+37, 26)
		for i, y := range ch.TransmitInto(m, packSymbols(syms), len(syms), sim.NewRNG(27), nil) {
			var na, nr float64
			var k int
			for _, j := range [4]int{i - 1, i + 1, i - w, i + w} {
				if j < 0 || j >= len(syms) || (j == i-1 || j == i+1) && j/w != i/w {
					continue
				}
				q := m.IdealPoint(syms[j])
				na, nr, k = na+q.A, nr+q.R, k+1
			}
			p := m.IdealPoint(syms[i])
			want := Point{A: p.A + ch.ISI*na/float64(k), R: p.R + ch.ISI*nr/float64(k)}
			if math.Abs(y.A-want.A) > 1e-9 || math.Abs(y.R-want.R) > 1e-9 {
				t.Fatalf("voxel %d (row %d, column %d): received %+v, want %+v", i, i/w, i%w, y, want)
			}
		}
	})
}
