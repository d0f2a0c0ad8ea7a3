package ldpc

import "math"

// minSumScale is the normalization factor for min-sum BP; 0.75 is the
// standard choice that closes most of the gap to full sum-product.
const minSumScale = 0.75

const minSumScale32 = float32(minSumScale)

// float32 bit patterns the BP kernel works on. +Inf is above every
// finite magnitude when compared as a uint32.
const (
	signBit32 = 1 << 31
	infBits32 = 0x7f800000
)

// layeredBP is the block decoder: serial-schedule ("layered") normalized
// min-sum on float32 state, run over channel LLRs (positive LLR means
// "bit is 0", the usual convention). On entry sc.cwWords holds the hard
// decision of llr and sc.synd/unsat its syndrome; on return cwWords
// holds the decoded decision. It returns the iterations run (0 when the
// decision already was a codeword) and whether every check is satisfied;
// a failure is a sector erasure for network coding, per §5. Checks are processed in fixed ascending order; each
// reads the current posteriors, lazily reconstructs its inbound messages
// as total[v]-c2v[e], and writes the refreshed posterior back at once,
// so later checks in the same iteration see it — which is why it
// converges in roughly half the iterations of a flooded schedule
// (decodeBPReference, in the tests).
// The only persistent edge state is c2v, walked strictly sequentially;
// the first sweep writes it without reading it, since every inbound
// check message is still zero there (total[v] - 0 is total[v] exactly).
// The syndrome is maintained incrementally: a posterior sign change
// flips the variable's bit, toggles its ColWeight checks and the unsat
// counter, and the decode returns at the first check after which that
// counter is zero — most blocks at the operating point settle part-way
// through their first sweep. The serial schedule and fixed check order
// keep the result a pure function of the input LLRs — worker-count
// independent, per the DESIGN.md §8 determinism contract.
//
// The check-node update works on the float32 bit patterns: message
// signs at the operating point are coin flips, so a compare-and-branch
// on them mispredicts half the time. Sign parity is an XOR of raw
// patterns, magnitudes (sign bit cleared) order as uint32 exactly as
// the non-negative floats they encode, and the outgoing message is
// assembled from a scaled minimum and a sign bit. This relies on no
// -0.0 ever entering total: a - b is -0.0 only for a = -0.0, and x + y
// only when both are, so canonicalising the channel LLRs on entry keeps
// every posterior's sign bit equal to "value < 0".
func (c *Code) layeredBP(llr []float32, maxIter int, sc *bpScratch, unsat int) (int, bool) {
	if unsat == 0 {
		return 0, true
	}
	if maxIter <= 0 {
		maxIter = 50
	}
	total, cw, synd := sc.total, sc.cwWords, sc.synd
	for v, x := range llr[:c.N] {
		total[v] = x + 0 // -0.0 + 0 = +0.0: a zero LLR decides bit 0
	}
	c2v := sc.c2v[:c.edges]
	for iter := 1; iter <= maxIter; iter++ {
		first := iter == 1
		for ci, vars := range c.checkVars {
			off := int(c.edgeOff[ci])
			cm := c2v[off : off+len(vars)]
			m := sc.mbuf[:len(vars)]
			min1, min2 := uint32(infBits32), uint32(infBits32)
			min1Idx := -1
			var parity uint32
			for e, v := range vars {
				t := total[v]
				if !first {
					t -= cm[e]
				}
				xb := math.Float32bits(t)
				m[e] = xb
				parity ^= xb
				a := xb &^ signBit32
				min2 = min(min2, max(a, min1))
				if a < min1 {
					min1Idx = e
				}
				min1 = min(min1, a)
			}
			parity &= signBit32
			scaled1 := math.Float32bits(minSumScale32 * math.Float32frombits(min1))
			scaled2 := math.Float32bits(minSumScale32 * math.Float32frombits(min2))
			for e, v := range vars {
				mag := scaled1
				if e == min1Idx {
					mag = scaled2
				}
				xb := m[e]
				nm := math.Float32frombits(mag | (parity^xb)&signBit32)
				t := math.Float32frombits(xb) + nm
				cm[e] = nm
				total[v] = t
				w, bit := v>>6, uint(v)&63
				if uint64(math.Float32bits(t)>>31) != cw[w]>>bit&1 {
					cw[w] ^= 1 << bit
					for _, cj := range c.varChecks[v] {
						if synd[cj] == 0 {
							synd[cj] = 1
							unsat++
						} else {
							synd[cj] = 0
							unsat--
						}
					}
				}
			}
			if unsat == 0 {
				return iter, true
			}
		}
	}
	return maxIter, false
}

// HardLLR converts hard bits into saturated LLRs for feeding a hard
// decision into the BP decoder (e.g. when only a binarized read is
// available). confidence is the magnitude to assign.
func HardLLR(bits []uint8, confidence float64) []float64 {
	out := make([]float64, len(bits))
	for i, b := range bits {
		if b == 0 {
			out[i] = confidence
		} else {
			out[i] = -confidence
		}
	}
	return out
}
