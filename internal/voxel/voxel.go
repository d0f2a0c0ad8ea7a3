// Package voxel models the analog path of Silica: how coded bits become
// physical voxel modifications in glass and how polarization-microscopy
// readout turns them back into soft information (§3, §3.2).
//
// This is the repository's substitution for hardware the paper gates
// on. The real system writes voxels with a femtosecond laser (encoding
// 3–4 bits each in polarization angle and retardance) and decodes read
// drive images with a U-Net that outputs, per voxel, "a 2D array of
// probability distributions over the encoded symbols". We reproduce
// that contract: a 16-point (angle, retardance) constellation carries 4
// bits per voxel; a channel model applies sensor noise (AWGN),
// inter-symbol interference from XY-adjacent voxels, scattered light
// from neighbouring Z layers, and rare write-time voxel loss; and a
// maximum-a-posteriori soft demapper emits exactly the per-voxel symbol
// posteriors (and derived bit LLRs) that the LDPC layer consumes. The
// paper reports 1e-3 sector failures for its prototype (§6); at
// DefaultChannel this model and the (512, 384) sector code measure
// ≈ 1.4 % over many payloads, and ROADMAP item 2 tracks the gap.
package voxel

import (
	"math"
	"math/rand/v2"

	"silica/internal/sim"
)

// BitsPerVoxel is fixed at 4 ("on the order of 3 or 4" per the paper).
const BitsPerVoxel = 4

// numSymbols is 2^BitsPerVoxel.
const numSymbols = 1 << BitsPerVoxel

// grayOrder maps 2-bit values to grid positions so that adjacent
// constellation points differ in one bit per axis.
var grayOrder = [4]int{0, 1, 3, 2}

// Point is a received or ideal observation in the normalized
// (polarization angle, retardance) plane.
type Point struct{ A, R float64 }

// Modulation is the 16-point constellation on a 4x4 grid in [-1,1]^2
// with Gray mapping per axis.
type Modulation struct {
	points [numSymbols]Point
}

// NewModulation returns the standard 16-symbol constellation.
func NewModulation() *Modulation {
	m := &Modulation{}
	levels := [4]float64{-1, -1.0 / 3, 1.0 / 3, 1}
	for sym := 0; sym < numSymbols; sym++ {
		aBits := sym & 3
		rBits := sym >> 2 & 3
		m.points[sym] = Point{A: levels[grayOrder[aBits]], R: levels[grayOrder[rBits]]}
	}
	return m
}

// IdealPoint returns the constellation point of a symbol.
func (m *Modulation) IdealPoint(sym uint8) Point { return m.points[sym&(numSymbols-1)] }

// symbolAt returns symbol i of a sector's glass: the sector is its
// codeword's bits packed LSB-first, so symbol i is coded bits
// 4i..4i+3, the low nibble of byte i/2 when i is even and its high
// nibble when i is odd.
func symbolAt(sector []byte, i int) uint8 {
	return sector[i>>1] >> (4 * (uint(i) & 1)) & (numSymbols - 1)
}

// Channel models the end-to-end write+read impairments of one sector.
type Channel struct {
	// Sigma is the per-axis AWGN sensor-noise standard deviation.
	Sigma float64
	// ISI couples each voxel to its XY neighbours: the received point
	// gains ISI * mean(neighbour ideal points).
	ISI float64
	// Scatter couples each voxel to the adjacent Z layers, modelled as
	// Scatter * (random other-layer symbol's ideal point).
	Scatter float64
	// PMissing is the probability a voxel was never formed (write-time
	// laser-energy error, §5); a missing voxel reads back as glass
	// background near the origin.
	PMissing float64
	// Width is the sector's voxel-grid width for ISI neighbourhood
	// computation.
	Width int
}

// DefaultChannel returns the operating point: a raw symbol error rate of
// a few percent, which the (512, 384) sector code cleans to ≈ 1.4 %
// sector failures (TestCalibratedSectorFailureRate), not the paper's
// 1e-3 (ROADMAP item 2).
func DefaultChannel() Channel {
	return Channel{Sigma: 0.16, ISI: 0.08, Scatter: 0.05, PMissing: 1e-5, Width: 64}
}

// CleanChannel returns a noiseless channel for tests.
func CleanChannel() Channel { return Channel{Sigma: 1e-4, Width: 64} }

// TransmitInto converts the first n symbols of a written sector (two a
// byte, low nibble first: see symbolAt) into received observations,
// reusing dst's storage when it is large enough, so a pooled buffer can
// absorb them. Every entry of the result is overwritten.
//
// Each voxel draws one Uint64 and two normals from rng, in that order.
// The Uint64's low four bits pick the scatter symbol and its top 53 bits
// decide the missing-voxel event (the same test as Float64() <
// PMissing); the normals are math/rand/v2's ziggurat over rng, the
// per-axis sensor noise of a formed voxel or the background of a missing
// one. TestChannelMatchesModel checks the distribution; the sector
// corpus pins the stream.
func (c Channel) TransmitInto(m *Modulation, sector []byte, n int, rng *sim.RNG, dst []Point) []Point {
	w := c.Width
	if w <= 0 {
		w = 64
	}
	sector = sector[:(n+1)/2]
	out := dst[:0]
	if cap(out) >= n {
		out = out[:n]
	} else {
		out = make([]Point, n)
	}
	norm := rand.New(rng)
	missCut := c.PMissing * (1 << 53) // u>>11 < missCut ⇔ Float64() < PMissing
	background := 2*c.Sigma + 0.05
	col := -1 // i's column, counted rather than divided out
	for i := range n {
		if col++; col == w {
			col = 0
		}
		u := rng.Uint64()
		if float64(u>>11) < missCut {
			// Missing voxel: background signal near origin.
			out[i] = Point{A: background * norm.NormFloat64(), R: background * norm.NormFloat64()}
			continue
		}
		p := m.IdealPoint(symbolAt(sector, i))
		a, r := p.A, p.R
		if c.ISI > 0 {
			// Horizontal neighbours stay in the voxel's row.
			var na, nr float64
			var k int
			if col > 0 {
				q := m.IdealPoint(symbolAt(sector, i-1))
				na, nr, k = na+q.A, nr+q.R, k+1
			}
			if col < w-1 && i+1 < n {
				q := m.IdealPoint(symbolAt(sector, i+1))
				na, nr, k = na+q.A, nr+q.R, k+1
			}
			if i >= w {
				q := m.IdealPoint(symbolAt(sector, i-w))
				na, nr, k = na+q.A, nr+q.R, k+1
			}
			if i+w < n {
				q := m.IdealPoint(symbolAt(sector, i+w))
				na, nr, k = na+q.A, nr+q.R, k+1
			}
			if k > 0 {
				a += c.ISI * na / float64(k)
				r += c.ISI * nr / float64(k)
			}
		}
		if c.Scatter > 0 {
			q := m.IdealPoint(uint8(u))
			a += c.Scatter * q.A
			r += c.Scatter * q.R
		}
		a += c.Sigma * norm.NormFloat64()
		r += c.Sigma * norm.NormFloat64()
		out[i] = Point{A: a, R: r}
	}
	return out
}

// EffectiveSigma is the total per-axis noise deviation the demapper
// assumes: sensor noise plus ISI and scatter treated as Gaussian.
func (c Channel) EffectiveSigma() float64 {
	// Neighbour mean amplitude per axis is ~0.56 for the 4x4 grid;
	// scatter symbol amplitude ~0.745 RMS per axis.
	isiVar := c.ISI * c.ISI * 0.31
	scatVar := c.Scatter * c.Scatter * 0.56
	return math.Sqrt(c.Sigma*c.Sigma + isiVar + scatVar)
}

// Demapper computes soft outputs from received points — the stand-in
// for the paper's U-Net inference stage.
type Demapper struct {
	mod   *Modulation
	sigma float64
	// axisLLR[j] holds the exact LLRs of an axis's two bits at coordinate
	// -axisRange + j*(2*axisRange/axisSteps). The constellation is a Gray
	// 4×4 grid and the noise model isotropic, so bits 0–1 of a voxel are a
	// function of A alone, bits 2–3 the same function of R
	// (TestExactLLRsSeparable); the read path interpolates this table
	// instead of evaluating 16 exponentials and 4 logarithms per voxel.
	// The last sample is stored twice so index j+1 is valid at the edge.
	axisLLR [][2]float64
}

// The per-axis LLR table spans ±axisRange — 1.5 beyond the outermost
// ideal level, about nine noise deviations at the default operating
// point — in axisSteps intervals; there, linear interpolation is within
// 2e-4 of the exact LLR.
const (
	axisRange = 2.5
	axisSteps = 4096
)

// NewDemapper builds a demapper matched to the channel. The axis table
// is sampled from the exact path (BitLLRs of Posteriors), which stays
// its only definition.
func NewDemapper(m *Modulation, ch Channel) *Demapper {
	d := &Demapper{mod: m, sigma: ch.EffectiveSigma(), axisLLR: make([][2]float64, axisSteps+2)}
	samples := make([]Point, axisSteps+1)
	for j := range samples {
		samples[j].A = -axisRange + float64(j)*(2*axisRange/axisSteps)
	}
	exact := BitLLRs(d.Posteriors(samples))
	for j := range samples {
		// Adding +0 turns a -0.0 sample into +0.0, so interpolation never
		// yields a negative zero and a zero LLR always decides bit 0.
		d.axisLLR[j] = [2]float64{exact[j*BitsPerVoxel] + 0, exact[j*BitsPerVoxel+1] + 0}
	}
	d.axisLLR[axisSteps+1] = d.axisLLR[axisSteps]
	return d
}

// LLRsInto writes the four bit LLRs of every received point into llr
// (length ≥ len(received)*BitsPerVoxel; positive favours bit 0) as the
// float32 the LDPC decoder works in, +0 added so a zero of either sign
// decides bit 0, and packs their signs LSB-first into hard (bit i set
// when llr[i] < 0; ⌈len(received)/16⌉ words). The LLRs are
// BitLLRs(Posteriors(received)) up to table interpolation, with no
// per-voxel transcendental. Coordinates outside ±axisRange saturate at
// the table edge, NaN at the low edge.
func (d *Demapper) LLRsInto(received []Point, llr []float32, hard []uint64) {
	llr = llr[:len(received)*BitsPerVoxel]
	var word uint64
	for i, y := range received {
		a0, a1 := d.axisLLRs(y.A)
		r0, r1 := d.axisLLRs(y.R)
		f0, f1, f2, f3 := float32(a0)+0, float32(a1)+0, float32(r0)+0, float32(r1)+0
		o := (*[BitsPerVoxel]float32)(llr[i*BitsPerVoxel:])
		o[0], o[1], o[2], o[3] = f0, f1, f2, f3
		nib := math.Float32bits(f0)>>31 | math.Float32bits(f1)>>31<<1 |
			math.Float32bits(f2)>>31<<2 | math.Float32bits(f3)>>31<<3
		word |= uint64(nib) << (4 * (uint(i) & 15))
		if i&15 == 15 {
			hard[i>>4], word = word, 0
		}
	}
	if len(received)&15 != 0 {
		hard[len(received)>>4] = word
	}
}

// axisLLRs interpolates the axis table at coordinate y.
func (d *Demapper) axisLLRs(y float64) (float64, float64) {
	x := (y + axisRange) * (axisSteps / (2 * axisRange))
	if !(x > 0) { // also catches NaN
		x = 0
	}
	x = min(x, axisSteps)
	j := int(x)
	t := x - float64(j)
	lo, hi := d.axisLLR[j], d.axisLLR[j+1]
	return lo[0] + t*(hi[0]-lo[0]), lo[1] + t*(hi[1]-lo[1])
}

// Posteriors returns, for each received point, the probability
// distribution over the 16 symbols — the exact output contract of the
// paper's ML decode stage (§3.2).
func (d *Demapper) Posteriors(received []Point) [][numSymbols]float64 {
	out := make([][numSymbols]float64, len(received))
	inv2s2 := 1 / (2 * d.sigma * d.sigma)
	for i, y := range received {
		var logp [numSymbols]float64
		max := math.Inf(-1)
		for s := 0; s < numSymbols; s++ {
			p := d.mod.points[s]
			da, dr := y.A-p.A, y.R-p.R
			lp := -(da*da + dr*dr) * inv2s2
			logp[s] = lp
			if lp > max {
				max = lp
			}
		}
		var sum float64
		for s := range logp {
			logp[s] = math.Exp(logp[s] - max)
			sum += logp[s]
		}
		for s := range logp {
			out[i][s] = logp[s] / sum
		}
	}
	return out
}

// BitLLRs converts symbol posteriors to per-bit LLRs (positive favours
// bit 0), the input format of the LDPC decoder.
func BitLLRs(posteriors [][numSymbols]float64) []float64 {
	const eps = 1e-300
	out := make([]float64, len(posteriors)*BitsPerVoxel)
	for i, post := range posteriors {
		for b := 0; b < BitsPerVoxel; b++ {
			var p0, p1 float64
			for s := 0; s < numSymbols; s++ {
				if s>>uint(b)&1 == 0 {
					p0 += post[s]
				} else {
					p1 += post[s]
				}
			}
			out[i*BitsPerVoxel+b] = math.Log((p0 + eps) / (p1 + eps))
		}
	}
	return out
}

// HardSymbols returns the max-posterior symbol per voxel.
func HardSymbols(posteriors [][numSymbols]float64) []uint8 {
	out := make([]uint8, len(posteriors))
	for i, post := range posteriors {
		best, bestP := 0, -1.0
		for s, p := range post {
			if p > bestP {
				best, bestP = s, p
			}
		}
		out[i] = uint8(best)
	}
	return out
}
