package ldpc

import (
	"fmt"
	"math"
	"math/bits"
)

// The references below are the original bit-serial encoder and flooded
// float64 min-sum decoder. Production never runs them: they are the
// known-good oracles the word-packed encoder and the serial-schedule
// decoder are property-tested against (fastpath_test.go), so they live
// with the tests and build whatever index they need themselves.

// bytesToBitsInto unpacks bytes LSB-first into out, which must hold at
// least 8*len(p) entries: the bit-level inverse of BitsToBytesInto.
func bytesToBitsInto(p []byte, out []uint8) {
	for i, b := range p {
		for j := 0; j < 8; j++ {
			out[i*8+j] = uint8(b >> uint(j) & 1)
		}
	}
}

// encodeIntoReference encodes msg into cw (length N) one set bit of each
// encoder row at a time.
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
	for i := range c.parityPos {
		var parity uint8
		for w, word := range c.encWords[i*c.kWords : (i+1)*c.kWords] {
			base := w * 64
			for word != 0 {
				parity ^= msg[base+bits.TrailingZeros64(word)] & 1
				word &= word - 1
			}
		}
		cw[c.parityPos[i]] = parity
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
func (c *Code) decodeBPReference(llr []float64, maxIter int) DecodeResult {
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
		return DecodeResult{Bits: hard, OK: true, Iterations: 0}
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
			return DecodeResult{Bits: hard, OK: true, Iterations: iter}
		}
	}
	return DecodeResult{Bits: hard, OK: false, Iterations: maxIter}
}
