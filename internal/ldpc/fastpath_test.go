package ldpc

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"testing"

	"silica/internal/sim"
)

// The word-packed encoder and the float32 serial-schedule BP decoder
// are pinned against the references in reference_test.go
// (encodeIntoReference: bit-serial; decodeBPReference: float64 flooded)
// across random codes,
// payloads, and noise seeds. Encode must be bit-identical — it is the
// same GF(2) algebra. Decode schedules legitimately differ in their
// message trajectories, so the contract is outcome-level: on decodable
// patterns both land on the same (true) codeword bit-for-bit; on
// near-tie patterns they may rarely split between neighboring valid
// codewords (the sector CRC arbitrates); and the fast path's success
// rate must not fall below the reference's.

// fastpathCodes covers word-aligned K, non-aligned K (both K%64 and
// N%64 nonzero, data positions in several runs), and the production
// shape (one data run, one parity run).
var fastpathCodes = [][2]int{
	{512, 384},   // production shape, K%64 == 0
	{256, 192},   // aligned, small
	{200, 137},   // K%64 = 9, N%64 = 8: every copyBits step shifts
	{330, 251},   // both unaligned, odd sizes
	{2048, 1664}, // large aligned block
}

func TestEncodeFastMatchesReference(t *testing.T) {
	for _, dims := range fastpathCodes {
		n, k := dims[0], dims[1]
		t.Run(fmt.Sprintf("n%d_k%d", n, k), func(t *testing.T) {
			c, err := NewCode(n, k, uint64(n*31+k))
			if err != nil {
				t.Fatal(err)
			}
			r := sim.NewRNG(uint64(17 * n))
			ref := make([]uint8, c.N)
			words := make([]uint64, c.nWords)
			sc := c.getScratch()
			defer c.putScratch(sc)
			for trial := 0; trial < 50; trial++ {
				msg := randomBits(r, c.K)
				fast := c.encode(msg)
				c.encodeIntoReference(msg, ref)
				if !bitsEqual(fast, ref) {
					t.Fatalf("trial %d: nibble-table encode diverges from bit-serial reference", trial)
				}
				packBitsInto(fast, words)
				if !c.syndromeOK(fast) || c.loadHard(words, 0, sc) != 0 {
					t.Fatalf("trial %d: encoded codeword fails syndrome", trial)
				}
			}
		})
	}
}

func TestDecodeFastMatchesReference(t *testing.T) {
	for _, dims := range fastpathCodes {
		n, k := dims[0], dims[1]
		t.Run(fmt.Sprintf("n%d_k%d", n, k), func(t *testing.T) {
			c, err := NewCode(n, k, uint64(n*31+k))
			if err != nil {
				t.Fatal(err)
			}
			r := sim.NewRNG(uint64(23*n + 5))
			refSucc, fastSucc, disagree := 0, 0, 0
			for trial := 0; trial < 60; trial++ {
				msg := randomBits(r, c.K)
				cw := c.encode(msg)
				rx := append([]uint8(nil), cw...)
				flips := trial % 8 // 0..7 bit errors
				for _, i := range r.Perm(c.N)[:flips] {
					rx[i] ^= 1
				}
				llr := HardLLR(rx, 2)
				fast := c.decodeBP(llr, 50)
				ref := c.decodeBPReference(llr, 50)
				if fast.OK {
					fastSucc++
					if !bitsEqual(fast.Bits, cw) {
						// A decoder may in principle land on a different
						// valid codeword; it must still satisfy every check.
						if !c.syndromeOK(fast.Bits) {
							t.Fatalf("trial %d: fast decode OK but syndrome fails", trial)
						}
					}
				}
				if ref.OK {
					refSucc++
				}
				if fast.OK && ref.OK && !bitsEqual(fast.Bits, ref.Bits) {
					// A heavily corrupted word can sit between two valid
					// codewords and the schedules may split between them;
					// both must still be genuine codewords, and it must
					// stay rare. The sector CRC arbitrates such cases.
					if !c.syndromeOK(ref.Bits) {
						t.Fatalf("trial %d: reference decode OK but syndrome fails", trial)
					}
					disagree++
				}
				if flips == 0 {
					if !fast.OK || fast.Iterations != 0 {
						t.Fatalf("trial %d: clean input should decode in 0 iterations (ok=%v iters=%d)", trial, fast.OK, fast.Iterations)
					}
					if !bitsEqual(fast.Bits, cw) {
						t.Fatalf("trial %d: clean decode corrupted codeword", trial)
					}
				}
			}
			// The schedules have slightly different convergence basins,
			// so allow a sliver of divergence either way — but a real
			// regression (fast losing whole classes of patterns) fails.
			if fastSucc+2 < refSucc {
				t.Fatalf("fast decoder succeeded %d times, reference %d — fast path lost patterns", fastSucc, refSucc)
			}
			if disagree > 3 {
				t.Fatalf("schedules landed on different codewords %d times — should be rare ties", disagree)
			}
		})
	}
}

// TestDecodeFastSoftNoise pins the two schedules against each other
// under genuine soft LLRs (AWGN), the shape the voxel demapper
// produces, including a success-rate floor for the serial schedule.
func TestDecodeFastSoftNoise(t *testing.T) {
	c := mustNewCode(512, 384, 7)
	r := sim.NewRNG(77)
	refSucc, fastSucc := 0, 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		msg := randomBits(r, c.K)
		cw := c.encode(msg)
		llr := make([]float64, c.N)
		sigma := 0.45 + 0.01*float64(trial%10)
		for i, b := range cw {
			x := 1.0
			if b == 1 {
				x = -1.0
			}
			llr[i] = 2 * (x + r.Normal(0, sigma)) / (sigma * sigma)
		}
		fast := c.decodeBP(llr, 80)
		ref := c.decodeBPReference(llr, 80)
		if fast.OK && bitsEqual(c.extract(fast.Bits), msg) {
			fastSucc++
		}
		if ref.OK && bitsEqual(c.extract(ref.Bits), msg) {
			refSucc++
		}
		if fast.OK && ref.OK && !bitsEqual(fast.Bits, ref.Bits) {
			t.Fatalf("trial %d: schedules disagree on a jointly-decoded word", trial)
		}
	}
	if fastSucc < refSucc {
		t.Fatalf("serial schedule succeeded %d/%d, flooded reference %d/%d", fastSucc, trials, refSucc, trials)
	}
}

// TestSectorFastMatchesReferencePipeline drives whole sectors through
// the fast decode (syndrome, then layered BP) and checks the outcome
// against a pure reference pipeline (reference encode + flooded BP per
// block) across noise seeds.
func TestSectorFastMatchesReferencePipeline(t *testing.T) {
	for _, dims := range [][2]int{{512, 384}, {200, 137}} {
		code, err := NewCode(dims[0], dims[1], 99)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := NewSectorCodec(code, 300)
		if err != nil {
			t.Fatal(err)
		}
		r := sim.NewRNG(uint64(dims[0]))
		for trial := 0; trial < 20; trial++ {
			payload := make([]byte, sc.PayloadBytes)
			for i := range payload {
				payload[i] = byte(r.Uint64())
			}
			// Reference encode, bit-serial, block by block.
			framed := make([]byte, sc.PayloadBytes+crcBytes)
			refCoded := encodeSectorReference(sc, payload, framed)
			fastCoded := sc.EncodeSectorInto(payload, make([]uint8, sc.EncodedBits()))
			if !bitsEqual(refCoded, fastCoded) {
				t.Fatalf("trial %d: sector encode diverges from reference", trial)
			}
			rx := append([]uint8(nil), fastCoded...)
			flips := trial * sc.Blocks() / 4 // 0 .. ~5 per block
			for _, i := range r.Perm(len(rx))[:flips] {
				rx[i] ^= 1
			}
			llr := HardLLR(rx, 2)
			res := sc.DecodeSectorInto(llr, 50, nil)
			refOK := referenceSectorOK(sc, llr, payload)
			if refOK && !res.OK {
				t.Fatalf("trial %d (flips=%d): reference pipeline decodes but fast sector path fails", trial, flips)
			}
			if res.OK && !bytes.Equal(res.Payload, payload) {
				t.Fatalf("trial %d: fast sector decode OK with wrong payload", trial)
			}
		}
	}
}

// encodeSectorReference frames payload and encodes every block with the
// bit-serial reference encoder.
func encodeSectorReference(sc *SectorCodec, payload, framed []byte) []uint8 {
	copy(framed, payload)
	crc := crc32.ChecksumIEEE(payload)
	framed[sc.PayloadBytes] = byte(crc)
	framed[sc.PayloadBytes+1] = byte(crc >> 8)
	framed[sc.PayloadBytes+2] = byte(crc >> 16)
	framed[sc.PayloadBytes+3] = byte(crc >> 24)
	msgBits := make([]uint8, sc.Blocks()*sc.Code.K)
	bytesToBitsInto(framed, msgBits)
	out := make([]uint8, sc.EncodedBits())
	for b := 0; b < sc.Blocks(); b++ {
		sc.Code.encodeIntoReference(msgBits[b*sc.Code.K:(b+1)*sc.Code.K], out[b*sc.Code.N:(b+1)*sc.Code.N])
	}
	return out
}

// referenceSectorOK decodes every block with the flooded reference and
// reports whether the recovered payload matches.
func referenceSectorOK(sc *SectorCodec, llr []float64, want []byte) bool {
	msgBits := make([]uint8, sc.Blocks()*sc.Code.K)
	for b := 0; b < sc.Blocks(); b++ {
		res := sc.Code.decodeBPReference(llr[b*sc.Code.N:(b+1)*sc.Code.N], 50)
		if !res.OK {
			return false
		}
		copy(msgBits[b*sc.Code.K:], sc.Code.extract(res.Bits))
	}
	got := make([]byte, sc.PayloadBytes+crcBytes)
	bitsToBytesInto(msgBits[:len(got)*8], got)
	return bytes.Equal(got[:sc.PayloadBytes], want)
}

// TestPackHelpers pins copyBits, the one primitive every run, block and
// hard-decision copy goes through, against a naive bit-index walk at
// arbitrary source and destination offsets: the span lands exactly and
// every other destination bit keeps its value.
func TestPackHelpers(t *testing.T) {
	r := sim.NewRNG(31)
	for trial := 0; trial < 500; trial++ {
		n := 1 + int(r.Uint64()%513)
		srcBits := randomBits(r, n)
		src := make([]uint64, (n+63)/64)
		packBitsInto(srcBits, src)
		sOff := int(r.Uint64() % uint64(n))
		span := 1 + int(r.Uint64()%uint64(n-sOff))
		dstBits := randomBits(r, span+int(r.Uint64()%130))
		dOff := int(r.Uint64() % uint64(len(dstBits)-span+1))
		dst := make([]uint64, (len(dstBits)+63)/64)
		packBitsInto(dstBits, dst)
		copyBits(dst, dOff, src, sOff, span)
		copy(dstBits[dOff:dOff+span], srcBits[sOff:])
		got := make([]uint8, len(dstBits))
		unpackBitsInto(dst, got)
		if !bitsEqual(got, dstBits) {
			t.Fatalf("trial %d: copyBits(dOff=%d, sOff=%d, n=%d) differs from the bit walk", trial, dOff, sOff, span)
		}
		if tail := uint(len(dstBits)) & 63; tail != 0 && dst[len(dst)-1]>>tail != 0 {
			t.Fatalf("trial %d: copyBits wrote past the destination's last bit", trial)
		}
	}
}

// FuzzSectorRoundTrip feeds arbitrary payload bytes and a flip pattern
// through the fast encode → corrupt → decode pipeline, checking
// the schedule-independent invariants: fast encode is bit-identical to
// the reference, a clean read decodes in zero iterations, and a decode
// reported OK always returns the exact payload (the CRC gate never
// false-accepts).
func FuzzSectorRoundTrip(f *testing.F) {
	f.Add([]byte("seed payload for the silica sector fuzzer"), uint64(1), uint8(3))
	f.Add(bytes.Repeat([]byte{0xa5}, 100), uint64(99), uint8(0))
	f.Add([]byte{}, uint64(7), uint8(12))
	code := mustNewCode(512, 384, 1)
	sc, err := NewSectorCodec(code, 100)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, nflips uint8) {
		payload := make([]byte, sc.PayloadBytes)
		copy(payload, data)
		coded := sc.EncodeSectorInto(payload, make([]uint8, sc.EncodedBits()))
		ref := make([]uint8, len(coded))
		refFramed := make([]byte, sc.PayloadBytes+crcBytes)
		copy(ref, encodeSectorReference(sc, payload, refFramed))
		if !bitsEqual(coded, ref) {
			t.Fatal("fast encode diverges from reference")
		}
		r := sim.NewRNG(seed)
		rx := append([]uint8(nil), coded...)
		flips := int(nflips) % (len(rx) / 16)
		for _, i := range r.Perm(len(rx))[:flips] {
			rx[i] ^= 1
		}
		llr := HardLLR(rx, 2)
		res := sc.DecodeSectorInto(llr, 50, nil)
		if res.OK && !bytes.Equal(res.Payload, payload) {
			t.Fatalf("decode OK with corrupted payload (flips=%d)", flips)
		}
		if flips == 0 {
			if !res.OK || res.Iterations != 0 {
				t.Fatalf("clean sector should decode in 0 iterations (ok=%v iters=%d)", res.OK, res.Iterations)
			}
		}
	})
}
