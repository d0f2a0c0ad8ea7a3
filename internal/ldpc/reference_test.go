package ldpc

import (
	"fmt"
	"math"
)

// The references below are the original bit-serial encoder and flooded
// float64 min-sum decoder. Production never runs them: they are the
// known-good oracles the nibble-table encoder and the serial-schedule
// decoder are property-tested against (fastpath_test.go), so they live
// with the tests and build whatever index they need themselves. Beside
// them are the one-bit-a-byte adapters the tests drive the packed code
// through.

// mustNewCode is NewCode for compiled-in parameters.
func mustNewCode(n, k int, seed uint64) *Code {
	c, err := NewCode(n, k, seed)
	if err != nil {
		panic(err)
	}
	return c
}

// decodeResult reports the outcome of a whole-codeword decode.
type decodeResult struct {
	Bits       []uint8 // hard-decided codeword (length N)
	OK         bool    // all parity checks satisfied
	Iterations int     // decoder iterations actually run (0 = clean input)
}

// packBitsInto packs a 0/1 slice LSB-first into words, zeroing the
// unused high bits of the last word it writes.
func packBitsInto(bits []uint8, words []uint64) {
	clear(words[:(len(bits)+63)/64])
	for i, b := range bits {
		words[i>>6] |= uint64(b&1) << (uint(i) & 63)
	}
}

// unpackBitsInto is the inverse of packBitsInto for the first len(bits)
// bits.
func unpackBitsInto(words []uint64, bits []uint8) {
	for i := range bits {
		bits[i] = uint8(words[i>>6] >> (uint(i) & 63) & 1)
	}
}

// bytesToBitsInto unpacks bytes LSB-first into out, which must hold at
// least 8*len(p) entries.
func bytesToBitsInto(p []byte, out []uint8) {
	for i, b := range p {
		for j := 0; j < 8; j++ {
			out[i*8+j] = uint8(b >> uint(j) & 1)
		}
	}
}

// bitsToBytesInto packs the first 8*len(out) entries of bits LSB-first
// into out: the inverse of bytesToBitsInto.
func bitsToBytesInto(bits []uint8, out []byte) {
	for i := range out {
		var b byte
		for j := 0; j < 8; j++ {
			b |= byte(bits[i*8+j]&1) << uint(j)
		}
		out[i] = b
	}
}

// encode maps a K-bit message (one bit a byte) to its N-bit codeword
// through the production encoder.
func (c *Code) encode(msg []uint8) []uint8 {
	if len(msg) != c.K {
		panic(fmt.Sprintf("ldpc: message length %d, want %d", len(msg), c.K))
	}
	sc := c.getScratch()
	defer c.putScratch(sc)
	words, cw := make([]uint64, c.kWords), make([]uint64, c.nWords)
	packBitsInto(msg, words)
	c.encodeBlock(words, 0, cw, 0, sc)
	out := make([]uint8, c.N)
	unpackBitsInto(cw, out)
	return out
}

// extract returns the K message bits embedded in an N-bit codeword.
func (c *Code) extract(cw []uint8) []uint8 {
	msg := make([]uint8, c.K)
	for i, pos := range c.dataPos {
		msg[i] = cw[pos] & 1
	}
	return msg
}

// hardDecide rounds float64 LLRs to the decoder's float32 (+0 added)
// and packs their signs, as DecodeSectorInto does.
func hardDecide(llr []float64) ([]float32, []uint64) {
	f := make([]float32, len(llr))
	hard := make([]uint64, (len(llr)+63)/64)
	for i, x := range llr {
		f[i] = float32(x) + 0
		hard[i>>6] |= uint64(math.Float32bits(f[i])>>31) << (uint(i) & 63)
	}
	return f, hard
}

// decodeBPWith runs layeredBP on one block of float64 LLRs from the
// channel's hard decision, on sc.
func (c *Code) decodeBPWith(llr []float64, maxIter int, sc *bpScratch) (int, bool) {
	if len(llr) != c.N {
		panic("ldpc: LLR length mismatch")
	}
	f, hard := hardDecide(llr)
	return c.layeredBP(f, maxIter, sc, c.loadHard(hard, 0, sc))
}

// decodeBP is whole-codeword layered BP, the sector decoder's BP tier
// on its own.
func (c *Code) decodeBP(llr []float64, maxIter int) decodeResult {
	sc := c.getScratch()
	defer c.putScratch(sc)
	iters, ok := c.decodeBPWith(llr, maxIter, sc)
	bits := make([]uint8, c.N)
	unpackBitsInto(sc.cwWords, bits)
	return decodeResult{Bits: bits, OK: ok, Iterations: iters}
}

// encodeIntoReference encodes msg into cw (length N) one message bit at
// a time: parity bit i is the XOR of the message bits whose encoder
// column has bit i set. The columns are the single-bit entries of
// encTab; that they are the right ones is what syndromeOK checks.
func (c *Code) encodeIntoReference(msg, cw []uint8) {
	if len(msg) != c.K {
		panic(fmt.Sprintf("ldpc: message length %d, want %d", len(msg), c.K))
	}
	if len(cw) != c.N {
		panic(fmt.Sprintf("ldpc: codeword buffer length %d, want %d", len(cw), c.N))
	}
	for i, pos := range c.dataPos {
		cw[pos] = msg[i] & 1
	}
	nibbles := len(c.encTab) / (16 * c.mWords)
	for i, pos := range c.parityPos {
		var parity uint8
		for d := 0; d < c.K; d++ {
			word := c.encTab[(i>>6*nibbles+d/4)*16+1<<(d%4)]
			if word>>(uint(i)&63)&1 == 1 {
				parity ^= msg[d] & 1
			}
		}
		cw[pos] = parity
	}
}

// syndromeOK reports whether cw (one 0/1 entry per bit) satisfies every
// parity check, walking the sparse rows.
func (c *Code) syndromeOK(cw []uint8) bool {
	for _, vars := range c.checkVars {
		var s uint8
		for _, v := range vars {
			s ^= cw[v] & 1
		}
		if s != 0 {
			return false
		}
	}
	return true
}

// varEdges groups the edge indices of the Tanner graph by variable:
// varEdge[varOff[v]:varOff[v+1]] lists the edges incident to v, in
// check order.
func (c *Code) varEdges() (varOff, varEdge []int32) {
	varOff = make([]int32, c.N+1)
	for _, vars := range c.checkVars {
		for _, v := range vars {
			varOff[v+1]++
		}
	}
	for v := 0; v < c.N; v++ {
		varOff[v+1] += varOff[v]
	}
	varEdge = make([]int32, c.edges)
	fill := append([]int32(nil), varOff[:c.N]...)
	for ci, vars := range c.checkVars {
		off := c.edgeOff[ci]
		for e, v := range vars {
			varEdge[fill[v]] = off + int32(e)
			fill[v]++
		}
	}
	return varOff, varEdge
}

// decodeBPReference is flooded float64 normalized min-sum: every check
// updates from the previous iteration's messages, then every variable,
// with a full syndrome sweep per iteration.
func (c *Code) decodeBPReference(llr []float64, maxIter int) decodeResult {
	if len(llr) != c.N {
		panic("ldpc: LLR length mismatch")
	}
	if maxIter <= 0 {
		maxIter = 50
	}
	varOff, varEdge := c.varEdges()
	v2c := make([]float64, c.edges)
	c2v := make([]float64, c.edges)
	hard := make([]uint8, c.N)
	for ci, vars := range c.checkVars {
		off := c.edgeOff[ci]
		for e, v := range vars {
			v2c[off+int32(e)] = llr[v]
		}
	}
	decide := func() {
		for v := 0; v < c.N; v++ {
			sum := llr[v]
			for _, ei := range varEdge[varOff[v]:varOff[v+1]] {
				sum += c2v[ei]
			}
			if sum < 0 {
				hard[v] = 1
			} else {
				hard[v] = 0
			}
		}
	}
	decide()
	if c.syndromeOK(hard) {
		return decodeResult{Bits: hard, OK: true, Iterations: 0}
	}

	for iter := 1; iter <= maxIter; iter++ {
		// Check node update (normalized min-sum).
		for ci := range c.checkVars {
			off, end := c.edgeOff[ci], c.edgeOff[ci+1]
			in := v2c[off:end]
			out := c2v[off:end]
			// Find min and second-min of |in|, and the sign product.
			min1, min2 := math.Inf(1), math.Inf(1)
			min1Idx := -1
			signProd := 1.0
			for e, m := range in {
				a := math.Abs(m)
				if a < min1 {
					min2 = min1
					min1 = a
					min1Idx = e
				} else if a < min2 {
					min2 = a
				}
				if m < 0 {
					signProd = -signProd
				}
			}
			for e, m := range in {
				mag := min1
				if e == min1Idx {
					mag = min2
				}
				s := signProd
				if m < 0 {
					s = -s
				}
				out[e] = minSumScale * s * mag
			}
		}
		// Variable node update.
		for v := 0; v < c.N; v++ {
			total := llr[v]
			edges := varEdge[varOff[v]:varOff[v+1]]
			for _, ei := range edges {
				total += c2v[ei]
			}
			for _, ei := range edges {
				v2c[ei] = total - c2v[ei]
			}
		}
		decide()
		if c.syndromeOK(hard) {
			return decodeResult{Bits: hard, OK: true, Iterations: iter}
		}
	}
	return decodeResult{Bits: hard, OK: false, Iterations: maxIter}
}
