package voxel

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"silica/internal/ldpc"
	"silica/internal/sim"
	"silica/internal/stats"
)

// minDistance is the 4x4 grid's spacing over [-1, 1]: the minimum
// distance between constellation points.
const minDistance = 2.0 / 3

func TestConstellationGeometry(t *testing.T) {
	m := NewModulation()
	// All 16 points distinct, all within [-1,1]^2.
	seen := map[Point]bool{}
	for s := 0; s < 16; s++ {
		p := m.IdealPoint(uint8(s))
		if p.A < -1 || p.A > 1 || p.R < -1 || p.R > 1 {
			t.Fatalf("symbol %d point %+v out of range", s, p)
		}
		if seen[p] {
			t.Fatalf("duplicate constellation point %+v", p)
		}
		seen[p] = true
	}
	// Minimum pairwise distance is the grid step, 2/3.
	min := math.Inf(1)
	for a := 0; a < 16; a++ {
		for b := a + 1; b < 16; b++ {
			pa, pb := m.IdealPoint(uint8(a)), m.IdealPoint(uint8(b))
			d := math.Hypot(pa.A-pb.A, pa.R-pb.R)
			if d < min {
				min = d
			}
		}
	}
	if math.Abs(min-minDistance) > 1e-12 {
		t.Fatalf("min distance = %v, want %v", min, minDistance)
	}
}

func TestGrayMappingNeighbourProperty(t *testing.T) {
	// Horizontally adjacent constellation points must differ in exactly
	// one bit (that is the point of Gray mapping: most symbol errors
	// cause a single bit error).
	m := NewModulation()
	for a := 0; a < 16; a++ {
		for b := a + 1; b < 16; b++ {
			pa, pb := m.IdealPoint(uint8(a)), m.IdealPoint(uint8(b))
			d := math.Hypot(pa.A-pb.A, pa.R-pb.R)
			if math.Abs(d-minDistance) < 1e-9 {
				diff := a ^ b
				if diff&(diff-1) != 0 {
					t.Fatalf("adjacent symbols %d,%d differ in >1 bit", a, b)
				}
			}
		}
	}
}

// packSymbols packs one-a-byte symbols into a sector's form, two a
// byte, the even-indexed one in the low nibble.
func packSymbols(symbols []uint8) []byte {
	sector := make([]byte, (len(symbols)+1)/2)
	for i, s := range symbols {
		sector[i/2] |= s & (numSymbols - 1) << (4 * (i & 1))
	}
	return sector
}

// TestModulateRoundTrip holds a sector's form to the bit-serial layout:
// storeWords writes the coded words out and symbolAt reads symbol i back
// as coded bits 4i..4i+3, LSB first, at every symbol count (whole words,
// half words, odd counts and single-symbol tails).
func TestModulateRoundTrip(t *testing.T) {
	err := quick.Check(func(raw []uint64, n uint8) bool {
		if len(raw) == 0 {
			return true
		}
		count := int(n) % (len(raw)*64/BitsPerVoxel + 1)
		sector := make([]byte, (count+1)/2)
		storeWords(sector, raw)
		for i := 0; i < count*BitsPerVoxel; i++ {
			if uint64(symbolAt(sector, i/BitsPerVoxel)>>(i%BitsPerVoxel)&1) != raw[i>>6]>>(uint(i)&63)&1 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCleanChannelRoundTrip(t *testing.T) {
	m := NewModulation()
	ch := CleanChannel()
	rng := sim.NewRNG(1)
	syms := make([]uint8, 256)
	for i := range syms {
		syms[i] = uint8(rng.Intn(16))
	}
	rx := ch.TransmitInto(m, packSymbols(syms), len(syms), rng, nil)
	d := NewDemapper(m, ch)
	got := HardSymbols(d.Posteriors(rx))
	for i := range syms {
		if got[i] != syms[i] {
			t.Fatalf("clean channel corrupted symbol %d", i)
		}
	}
}

func TestPosteriorsAreDistributions(t *testing.T) {
	m := NewModulation()
	ch := DefaultChannel()
	rng := sim.NewRNG(2)
	syms := make([]uint8, 500)
	for i := range syms {
		syms[i] = uint8(rng.Intn(16))
	}
	post := NewDemapper(m, ch).Posteriors(ch.TransmitInto(m, packSymbols(syms), len(syms), rng, nil))
	for i, p := range post {
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("voxel %d: probability %v out of range", i, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("voxel %d: posterior sums to %v", i, sum)
		}
	}
}

func TestDefaultChannelRawSymbolErrorRate(t *testing.T) {
	// The operating point should have a raw symbol error rate in the
	// "few percent" range: low enough for LDPC, high enough that the
	// code is actually doing work.
	m := NewModulation()
	ch := DefaultChannel()
	rng := sim.NewRNG(3)
	const n = 20000
	syms := make([]uint8, n)
	for i := range syms {
		syms[i] = uint8(rng.Intn(16))
	}
	got := HardSymbols(NewDemapper(m, ch).Posteriors(ch.TransmitInto(m, packSymbols(syms), len(syms), rng, nil)))
	errs := 0
	for i := range syms {
		if got[i] != syms[i] {
			errs++
		}
	}
	rate := float64(errs) / n
	if rate < 0.001 || rate > 0.15 {
		t.Fatalf("raw symbol error rate = %v, want a few percent", rate)
	}
}

// TestMissingVoxelsDegradePosteriors writes the (1, 1) corner and loses
// every voxel: a missing voxel reads as background near the origin, so
// its posterior should almost never be confidently the written symbol.
func TestMissingVoxelsDegradePosteriors(t *testing.T) {
	const (
		corner = 10 // (1, 1)
		n      = 4096
		limit  = 4 // confident reads allowed out of n
	)
	m := NewModulation()
	if p := m.IdealPoint(corner); p != (Point{A: 1, R: 1}) {
		t.Fatalf("symbol %d is %+v, not the (1, 1) corner", corner, p)
	}
	ch := CleanChannel()
	ch.PMissing = 1 // every voxel missing
	ch.Sigma = 0.1
	// A background point is N(0, background²) per axis, and the corner's
	// posterior passes 0.9 only when both axes pass the 2/3 decision
	// boundary: P(confident) ≤ q². More than limit confident reads of n
	// then has probability below 1e-8 under any stream with the model's
	// distribution.
	background := 2*ch.Sigma + 0.05
	q := 0.5 * math.Erfc(2.0/3/(background*math.Sqrt2))
	if tail := stats.BinomialTail(n, limit, q*q); tail > 1e-8 {
		t.Fatalf("P(more than %d of %d confident) = %v under the model; raise n", limit, n, tail)
	}
	syms := make([]uint8, n)
	for i := range syms {
		syms[i] = corner
	}
	post := NewDemapper(m, ch).Posteriors(ch.TransmitInto(m, packSymbols(syms), len(syms), sim.NewRNG(4), nil))
	confident := 0
	for _, p := range post {
		if p[corner] > 0.9 {
			confident++
		}
	}
	if confident > limit {
		t.Fatalf("%d of %d missing voxels confidently decoded as the written corner, want at most %d", confident, n, limit)
	}
}

func TestBitLLRSigns(t *testing.T) {
	m := NewModulation()
	ch := CleanChannel()
	rng := sim.NewRNG(5)
	syms := make([]uint8, 64)
	for i := range syms {
		syms[i] = uint8(i % 16)
	}
	llrs := BitLLRs(NewDemapper(m, ch).Posteriors(ch.TransmitInto(m, packSymbols(syms), len(syms), rng, nil)))
	for i := range len(syms) * BitsPerVoxel {
		b := syms[i/BitsPerVoxel] >> (i % BitsPerVoxel) & 1
		if b == 0 && llrs[i] <= 0 {
			t.Fatalf("bit %d is 0 but LLR %v", i, llrs[i])
		}
		if b == 1 && llrs[i] >= 0 {
			t.Fatalf("bit %d is 1 but LLR %v", i, llrs[i])
		}
	}
}

func testPipeline(t testing.TB, ch Channel) *SectorPipeline {
	t.Helper()
	code, err := ldpc.NewCode(512, 384, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ldpc.NewSectorCodec(code, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return NewSectorPipeline(sc, ch)
}

func TestSectorPipelineRoundTrip(t *testing.T) {
	p := testPipeline(t, DefaultChannel())
	rng := sim.NewRNG(6)
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	syms := p.WriteSector(payload)
	if len(syms) != p.SectorBytes() {
		t.Fatalf("sector = %d bytes, want %d", len(syms), p.SectorBytes())
	}
	sc := p.AcquireScratch()
	defer p.ReleaseScratch(sc)
	for trial := 0; trial < 5; trial++ {
		res := p.ReadSectorWithBuf(sc, syms, rng, nil)
		if !res.OK {
			t.Fatalf("trial %d: sector decode failed at default operating point", trial)
		}
		if !bytes.Equal(res.Payload, payload) {
			t.Fatalf("trial %d: payload mismatch", trial)
		}
	}
}

// readsPerPayload is how many reads measureSectorFailureRate takes of
// one payload before it writes the next.
const readsPerPayload = 100

// measureSectorFailureRate estimates the sector failure probability at
// p's operating point by Monte Carlo: the §6 calibration
// that fixes the within-track redundancy provisioning. A payload's
// symbols fix its ISI pattern, and failure rates differ from payload to
// payload, so a fresh random payload is written every readsPerPayload
// trials.
func measureSectorFailureRate(p *SectorPipeline, trials int, seed uint64) float64 {
	rng := sim.NewRNG(seed)
	payload := make([]byte, p.Codec.PayloadBytes)
	sector := make([]byte, p.SectorBytes())
	sc := p.AcquireScratch()
	defer p.ReleaseScratch(sc)
	buf := make([]byte, p.Codec.PayloadBytes)
	failures := 0
	for t := 0; t < trials; t++ {
		if t%readsPerPayload == 0 {
			for i := range payload {
				payload[i] = byte(rng.Uint64())
			}
			copy(sector, p.WriteSectorWith(sc, payload))
		}
		if res := p.ReadSectorWithBuf(sc, sector, rng, buf); !res.OK {
			failures++
		}
	}
	return float64(failures) / float64(trials)
}

// TestCalibratedSectorFailureRate pins the §6 calibration where it
// stands: at the default operating point the service's sector shape
// fails ≈ 1.4 % of reads over many payloads, not the paper's 1e-3
// (DESIGN §4). 3000 reads on 30 payloads must land in
// [0.7 %, 2.2 %], so a channel whose noise is too weak fails here as
// surely as one whose noise is too strong.
func TestCalibratedSectorFailureRate(t *testing.T) {
	if testing.Short() {
		t.Skip("monte carlo")
	}
	const trials = 30 * readsPerPayload
	p := servicePipeline(t, DefaultChannel())
	if rate := measureSectorFailureRate(p, trials, 7); rate < 0.007 || rate > 0.022 {
		t.Fatalf("sector failure rate over %d reads = %v, want within [0.007, 0.022]", trials, rate)
	}
}

func TestHarshChannelFailsSectors(t *testing.T) {
	ch := DefaultChannel()
	ch.Sigma = 0.5 // hopeless
	p := testPipeline(t, ch)
	rate := measureSectorFailureRate(p, 20, 8)
	if rate < 0.5 {
		t.Fatalf("harsh channel failure rate = %v, want mostly failing", rate)
	}
}

func bitsEq(a, b []uint8) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The sector benchmarks write a random payload: an all-zero sector parks
// every data voxel on the (-1, -1) corner, where it has almost no
// neighbours to err towards, and the decoder then sees 0.3 % raw BER
// instead of the 1.7 % of the operating point it is sized at.

func BenchmarkSectorWritePath(b *testing.B) {
	p := testPipeline(b, DefaultChannel())
	payload := randomPayload(1000, 9)
	b.SetBytes(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.WriteSector(payload)
	}
}

func BenchmarkSectorReadPath(b *testing.B) {
	p := testPipeline(b, DefaultChannel())
	rng := sim.NewRNG(9)
	syms := p.WriteSector(randomPayload(1000, 9))
	sc := p.AcquireScratch()
	defer p.ReleaseScratch(sc)
	buf := make([]byte, 1000)
	b.ReportAllocs()
	b.SetBytes(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Rare failures are acceptable here; they are the ≈ 1.4 %.
		p.ReadSectorWithBuf(sc, syms, rng, buf)
	}
}

// BenchmarkSectorReadStages times the sector's stages separately at the
// service's operating point: encode (payload to symbols, the write
// half) and the three stages of ReadSectorWithBuf, so a change to the
// simulator (transmit: a stand-in for the read drive, which costs the
// real system no CPU) is never booked as a change to the system's own
// work (encode, demap, ldpc). The ldpc stage decodes float32 LLRs and
// their hard decision as the demapper leaves them, cycling through
// eight channel realisations so one lucky or unlucky read does not set
// the number.
func BenchmarkSectorReadStages(b *testing.B) {
	p := servicePipeline(b, DefaultChannel())
	rng := sim.NewRNG(9)
	payload := randomPayload(1000, 9)
	syms := p.WriteSector(payload)
	sc := p.AcquireScratch()
	defer p.ReleaseScratch(sc)
	type read struct {
		llrs []float32
		hard []uint64
	}
	var reads [8]read
	for i := range reads {
		p.Demap.LLRsInto(p.Ch.TransmitInto(p.Mod, syms, p.symbols(), rng, sc.points), sc.llrs, sc.hard)
		reads[i] = read{append([]float32(nil), sc.llrs[:p.Codec.EncodedBits()]...), append([]uint64(nil), sc.hard...)}
	}
	received := p.Ch.TransmitInto(p.Mod, syms, p.symbols(), rng, nil)
	buf := make([]byte, 1000)
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.WriteSectorWith(sc, payload)
		}
	})
	b.Run("transmit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Ch.TransmitInto(p.Mod, syms, p.symbols(), rng, sc.points)
		}
	})
	b.Run("demap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Demap.LLRsInto(received, sc.llrs, sc.hard)
		}
	})
	b.Run("ldpc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := &reads[i%len(reads)]
			p.Codec.DecodeSectorWith(sc.codec, r.llrs, r.hard, p.MaxIters, buf)
		}
	})
}
