package ldpc

import (
	"bytes"
	"testing"
	"testing/quick"

	"silica/internal/sim"
)

func testCode(t testing.TB) *Code {
	t.Helper()
	c, err := NewCode(512, 384, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCodeConstruction(t *testing.T) {
	c := testCode(t)
	if c.N != 512 || c.K != 384 || c.M != 128 {
		t.Fatalf("dimensions = %d/%d/%d", c.N, c.K, c.M)
	}
	if rate := float64(c.K) / float64(c.N); rate != 0.75 {
		t.Fatalf("rate K/N = %v, want 0.75", rate)
	}
	// Every variable participates in exactly ColWeight checks.
	for v, checks := range c.varChecks {
		if len(checks) != c.ColWeight {
			t.Fatalf("var %d has %d checks, want %d", v, len(checks), c.ColWeight)
		}
	}
	// Data + parity positions partition [0, N).
	seen := make([]bool, c.N)
	for _, p := range c.dataPos {
		seen[p] = true
	}
	for _, p := range c.parityPos {
		if seen[p] {
			t.Fatalf("position %d is both data and parity", p)
		}
		seen[p] = true
	}
	for p, s := range seen {
		if !s {
			t.Fatalf("position %d unassigned", p)
		}
	}
}

func TestNewCodeRejectsBadDims(t *testing.T) {
	for _, c := range [][2]int{{0, 0}, {10, 10}, {10, 12}, {-5, 2}, {8, 7}} {
		if _, err := NewCode(c[0], c[1], 1); err == nil {
			t.Fatalf("NewCode(%d,%d) should fail", c[0], c[1])
		}
	}
}

func TestEncodeSatisfiesAllChecks(t *testing.T) {
	c := testCode(t)
	r := sim.NewRNG(2)
	for trial := 0; trial < 20; trial++ {
		msg := randomBits(r, c.K)
		cw := c.encode(msg)
		if !c.syndromeOK(cw) {
			t.Fatal("encoded codeword violates parity checks")
		}
		got := c.extract(cw)
		if !bitsEqual(got, msg) {
			t.Fatal("Extract did not recover the message")
		}
	}
}

func TestEncodeLinearity(t *testing.T) {
	c := testCode(t)
	r := sim.NewRNG(3)
	err := quick.Check(func(seed uint32) bool {
		rr := r.Fork(string(rune(seed)))
		a := randomBits(rr, c.K)
		b := randomBits(rr, c.K)
		sum := make([]uint8, c.K)
		for i := range sum {
			sum[i] = a[i] ^ b[i]
		}
		ca, cb, cs := c.encode(a), c.encode(b), c.encode(sum)
		for i := range cs {
			if cs[i] != ca[i]^cb[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBPDecodesCleanChannel(t *testing.T) {
	c := testCode(t)
	r := sim.NewRNG(4)
	msg := randomBits(r, c.K)
	cw := c.encode(msg)
	res := c.decodeBP(HardLLR(cw, 8), 50)
	if !res.OK || res.Iterations != 0 {
		t.Fatalf("clean decode: ok=%v iters=%d (clean input should exit before iterating)", res.OK, res.Iterations)
	}
	if !bitsEqual(c.extract(res.Bits), msg) {
		t.Fatal("clean decode corrupted the message")
	}
}

// TestBPCorrectsBSCErrors is the core §5 claim: read-time errors are
// "a small number of random voxels decoded incorrectly" and LDPC must
// fix them. A rate-0.75 column-weight-3 code comfortably handles ~1.5%
// BSC flips at n=512.
func TestBPCorrectsBSCErrors(t *testing.T) {
	c := testCode(t)
	r := sim.NewRNG(5)
	const flips = 8 // ~1.5% of 512
	success := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		msg := randomBits(r, c.K)
		cw := c.encode(msg)
		rx := append([]uint8(nil), cw...)
		for _, i := range r.Perm(c.N)[:flips] {
			rx[i] ^= 1
		}
		res := c.decodeBP(HardLLR(rx, 2), 50)
		if res.OK && bitsEqual(c.extract(res.Bits), msg) {
			success++
		}
	}
	if success < trials*9/10 {
		t.Fatalf("BP corrected only %d/%d patterns with %d flips", success, trials, flips)
	}
}

func TestBPSoftBeatsUncoded(t *testing.T) {
	// With genuine soft information (AWGN LLRs) the decoder should clean
	// up a channel whose raw hard-decision BER is a few percent.
	c := testCode(t)
	r := sim.NewRNG(6)
	sigma := 0.55 // BPSK over AWGN: raw BER ~ Q(1/sigma) ~ 3.4%
	trials, success := 30, 0
	for trial := 0; trial < trials; trial++ {
		msg := randomBits(r, c.K)
		cw := c.encode(msg)
		llr := make([]float64, c.N)
		for i, b := range cw {
			x := 1.0
			if b == 1 {
				x = -1.0
			}
			y := x + r.Normal(0, sigma)
			llr[i] = 2 * y / (sigma * sigma)
		}
		res := c.decodeBP(llr, 80)
		if res.OK && bitsEqual(c.extract(res.Bits), msg) {
			success++
		}
	}
	if success < trials*2/3 {
		t.Fatalf("soft decode succeeded only %d/%d at sigma=%v", success, trials, sigma)
	}
}

func TestBPFailureReported(t *testing.T) {
	c := testCode(t)
	r := sim.NewRNG(7)
	msg := randomBits(r, c.K)
	cw := c.encode(msg)
	rx := append([]uint8(nil), cw...)
	// Saturate with errors: flip 40% of bits.
	for _, i := range r.Perm(c.N)[:c.N*2/5] {
		rx[i] ^= 1
	}
	res := c.decodeBP(HardLLR(rx, 6), 10)
	if res.OK && bitsEqual(c.extract(res.Bits), msg) {
		t.Fatal("decoder claims success on a hopeless channel and message matches?!")
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a, err := NewCode(256, 192, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCode(256, 192, 9)
	if err != nil {
		t.Fatal(err)
	}
	msg := randomBits(sim.NewRNG(10), a.K)
	if !bitsEqual(a.encode(msg), b.encode(msg)) {
		t.Fatal("same seed produced different codes")
	}
}

// TestBitsBytesRoundTrip pins the framed-byte layout: packBytesInto
// puts bit i of the bytes (LSB-first) at bit i of the words and zeroes
// the words past them, and storeBytes reads the bytes back.
func TestBitsBytesRoundTrip(t *testing.T) {
	err := quick.Check(func(p []byte) bool {
		words := make([]uint64, (len(p)+7)/8+1)
		for i := range words {
			words[i] = ^uint64(0)
		}
		packBytesInto(p, words)
		bits := make([]uint8, 8*len(p))
		bytesToBitsInto(p, bits)
		want := make([]uint64, len(words))
		packBitsInto(bits, want)
		back := make([]byte, len(p))
		storeBytes(words, back)
		for i := range words {
			if words[i] != want[i] {
				return false
			}
		}
		return bytes.Equal(back, p)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSectorCodecRoundTrip(t *testing.T) {
	c := testCode(t)
	sc, err := NewSectorCodec(c, 1000)
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRNG(11)
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(r.Uint64())
	}
	coded := sc.EncodeSectorInto(payload, make([]uint8, sc.EncodedBits()))
	if len(coded) != sc.EncodedBits() {
		t.Fatalf("coded length %d, want %d", len(coded), sc.EncodedBits())
	}
	res := sc.DecodeSectorInto(HardLLR(coded, 8), 50, nil)
	if !res.OK {
		t.Fatal("clean sector decode failed")
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Fatal("sector payload mismatch")
	}
	if res.Margin < 0.9 {
		t.Fatalf("clean decode margin = %v, want ~1", res.Margin)
	}
}

func TestSectorCodecCorrectsNoise(t *testing.T) {
	c := testCode(t)
	sc, err := NewSectorCodec(c, 500)
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRNG(12)
	payload := make([]byte, 500)
	for i := range payload {
		payload[i] = byte(r.Uint64())
	}
	coded := sc.EncodeSectorInto(payload, make([]uint8, sc.EncodedBits()))
	rx := append([]uint8(nil), coded...)
	// Flip ~0.7% of the coded bits.
	nflips := len(rx) / 150
	for _, i := range r.Perm(len(rx))[:nflips] {
		rx[i] ^= 1
	}
	res := sc.DecodeSectorInto(HardLLR(rx, 2), 50, nil)
	if !res.OK || !bytes.Equal(res.Payload, payload) {
		t.Fatalf("noisy sector decode failed (flips=%d)", nflips)
	}
}

func TestSectorCodecDetectsFailure(t *testing.T) {
	c := testCode(t)
	sc, err := NewSectorCodec(c, 200)
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRNG(13)
	payload := make([]byte, 200)
	coded := sc.EncodeSectorInto(payload, make([]uint8, sc.EncodedBits()))
	rx := append([]uint8(nil), coded...)
	for _, i := range r.Perm(len(rx))[:len(rx)/3] {
		rx[i] ^= 1
	}
	res := sc.DecodeSectorInto(HardLLR(rx, 8), 8, nil)
	if res.OK {
		t.Fatal("sector decode claims success on a destroyed sector")
	}
	if res.Margin != 0 {
		t.Fatalf("failed decode margin = %v, want 0", res.Margin)
	}
}

func TestSectorCodecOverheadAccounting(t *testing.T) {
	c := testCode(t)
	sc, err := NewSectorCodec(c, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// 1004 framed bytes = 8032 bits; ceil(8032/384) = 21 blocks.
	if sc.Blocks() != 21 {
		t.Fatalf("blocks = %d, want 21", sc.Blocks())
	}
	if sc.EncodedBits() != 21*512 {
		t.Fatalf("encoded bits = %d, want %d", sc.EncodedBits(), 21*512)
	}
}

func TestNewSectorCodecRejectsBadPayload(t *testing.T) {
	c := testCode(t)
	if _, err := NewSectorCodec(c, 0); err == nil {
		t.Fatal("zero payload accepted")
	}
}

func randomBits(r *sim.RNG, n int) []uint8 {
	out := make([]uint8, n)
	for i := range out {
		out[i] = uint8(r.Uint64() & 1)
	}
	return out
}

func bitsEqual(a, b []uint8) bool {
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

func BenchmarkEncode(b *testing.B) {
	c := mustNewCode(2048, 1664, 1)
	msg := make([]uint64, c.kWords)
	packBitsInto(randomBits(sim.NewRNG(1), c.K), msg)
	cw := make([]uint64, c.nWords)
	sc := c.getScratch()
	b.SetBytes(int64(c.K / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.encodeBlock(msg, 0, cw, 0, sc)
	}
}

func BenchmarkDecodeBPClean(b *testing.B) {
	c := mustNewCode(2048, 1664, 1)
	msg := randomBits(sim.NewRNG(1), c.K)
	llr := HardLLR(c.encode(msg), 8)
	b.SetBytes(int64(c.K / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := c.decodeBP(llr, 50); !res.OK {
			b.Fatal("decode failed")
		}
	}
}

func BenchmarkDecodeBPNoisy(b *testing.B) {
	c := mustNewCode(2048, 1664, 1)
	r := sim.NewRNG(1)
	msg := randomBits(r, c.K)
	cw := c.encode(msg)
	rx := append([]uint8(nil), cw...)
	for _, i := range r.Perm(c.N)[:10] {
		rx[i] ^= 1
	}
	llr := HardLLR(rx, 2)
	b.SetBytes(int64(c.K / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.decodeBP(llr, 50)
	}
}
