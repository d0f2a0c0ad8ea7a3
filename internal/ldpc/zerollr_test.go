package ldpc

import (
	"math"
	"testing"

	"silica/internal/sim"
)

// TestZeroLLRDecidesBitZero pins the one rule for an uninformative LLR:
// a zero of either sign decides bit 0 in the hard decision and in BP.
// With zeros placed only where the codeword holds a 0, the hard decision
// is already the codeword, so its syndrome, the fast BP path and the
// reference must all report a clean block — before the rule was shared,
// the hard decision read -0.0 as bit 1 and sent the block on to BP.
func TestZeroLLRDecidesBitZero(t *testing.T) {
	c := mustNewCode(512, 384, 1)
	r := sim.NewRNG(21)
	cw := c.encode(randomBits(r, c.K))
	llr := HardLLR(cw, 4)
	zeros := [2]float64{0, math.Copysign(0, -1)}
	placed := 0
	for v, b := range cw {
		if b == 0 && v%3 == 0 {
			llr[v] = zeros[placed%2]
			placed++
		}
	}
	if placed < 2 {
		t.Fatal("codeword has no zero bits to erase")
	}
	sc := c.getScratch()
	defer c.putScratch(sc)
	f, hard := hardDecide(llr)
	unsat := c.loadHard(hard, 0, sc)
	if unsat != 0 {
		t.Fatalf("loadHard: %d unsatisfied checks, want a clean block", unsat)
	}
	if iters, ok := c.layeredBP(f, 50, sc, unsat); !ok || iters != 0 {
		t.Fatalf("layeredBP: iters=%d ok=%v, want a clean block at iteration 0", iters, ok)
	}
	for name, res := range map[string]decodeResult{
		"decodeBP":          c.decodeBP(llr, 50),
		"decodeBPReference": c.decodeBPReference(llr, 50),
	} {
		if !res.OK || res.Iterations != 0 || !bitsEqual(res.Bits, cw) {
			t.Fatalf("%s: ok=%v iters=%d, want the codeword at iteration 0", name, res.OK, res.Iterations)
		}
	}
}

// TestBPSignBitTracksPosterior checks the invariant the branch-free
// kernel rests on: no posterior is ever -0.0, so the hard decision
// lifted from a sign bit is exactly "posterior < 0". LLRs that are
// multiples of 4 keep every message a multiple of 1/4 early on, so
// exact cancellations — the only source of zeros — are common.
func TestBPSignBitTracksPosterior(t *testing.T) {
	c := mustNewCode(512, 384, 1)
	r := sim.NewRNG(22)
	sc := c.getScratch()
	defer c.putScratch(sc)
	zeros := 0
	for trial := 0; trial < 200; trial++ {
		llr := make([]float64, c.N)
		for v := range llr {
			llr[v] = 4 * math.Round(r.Normal(0.5, 1)) * [2]float64{1, -1}[trial&1]
			if llr[v] == 0 && v&1 == 1 {
				llr[v] = math.Copysign(0, -1)
			}
		}
		c.decodeBPWith(llr, 4, sc)
		for v, total := range sc.total {
			if total == 0 {
				zeros++
			}
			bit := sc.cwWords[v>>6] >> (uint(v) & 63) & 1
			if (total == 0 && math.Signbit(float64(total))) || (bit == 1) != (total < 0) {
				t.Fatalf("trial %d: posterior[%d] = %v (signbit %v) but bit %d", trial, v, total, math.Signbit(float64(total)), bit)
			}
		}
	}
	if zeros == 0 {
		t.Fatal("no zero posterior reached: the test exercises nothing")
	}
}
