package ldpc

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"silica/internal/sim"
)

// Code is a binary LDPC code with block length N, dimension K, and
// M = N-K parity checks. The parity-check matrix is a regular Gallager
// ensemble with column weight ColWeight. The code is systematic in the
// sense that K "data positions" carry the message verbatim and M
// "parity positions" carry computed parity; the position maps are part
// of the code.
type Code struct {
	N, K, M   int
	ColWeight int

	// Sparse parity-check structure, used by the decoders. Both
	// adjacency lists are sorted ascending so the decode inner loops
	// stream through posterior/codeword memory instead of hopping.
	checkVars [][]int32 // per check row: variable indices
	varChecks [][]int32 // per variable: check row indices

	// Encoder: parity[i] = row i · message (GF(2) dot product), the
	// matrix flattened into one contiguous row-major []uint64 (kWords
	// words per row) so the hot encode walks it with pure word loads.
	encWords []uint64
	chkWords []uint64 // parity-check rows packed over N bits, row-major
	kWords   int      // words per packed K-bit message
	nWords   int      // words per packed N-bit codeword

	dataPos   []int // message bit -> codeword position
	parityPos []int // parity bit -> codeword position
	posIsData []bool

	// Decode acceleration, built once at construction. BP messages live
	// in flat arrays indexed by edge; edgeOff[ci] is the first edge of
	// check ci. Flat storage keeps the inner loops cache-friendly and
	// lets one pooled scratch serve every decode.
	edgeOff     []int32 // len M+1: prefix offsets into the edge arrays
	edges       int     // E: total edge count
	maxCheckDeg int     // widest check row

	scratch sync.Pool // *bpScratch, sized for this code
}

// buildDecodeIndex flattens the Tanner graph into the edge-indexed
// arrays the BP decoder iterates over. It first sorts every adjacency
// list ascending: the construction deals edges in shuffled order, and
// sorted rows turn the per-check posterior gathers into near-sequential
// memory walks.
func (c *Code) buildDecodeIndex() {
	for _, vars := range c.checkVars {
		sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	}
	for _, chk := range c.varChecks {
		sort.Slice(chk, func(i, j int) bool { return chk[i] < chk[j] })
	}
	c.edgeOff = make([]int32, c.M+1)
	c.maxCheckDeg = 0
	for ci, vars := range c.checkVars {
		c.edgeOff[ci+1] = c.edgeOff[ci] + int32(len(vars))
		if len(vars) > c.maxCheckDeg {
			c.maxCheckDeg = len(vars)
		}
	}
	c.edges = int(c.edgeOff[c.M])
}

// buildEncodeWords flattens the encoder rows into the contiguous word
// matrix the fast encoder streams through, and packs the parity-check
// rows the same way (chkWords) so syndrome evaluation is word
// AND/XOR/popcount instead of per-edge bit gathers.
func (c *Code) buildEncodeWords(encRows []bitset) {
	c.kWords = (c.K + 63) / 64
	c.nWords = (c.N + 63) / 64
	c.encWords = make([]uint64, c.M*c.kWords)
	for i, row := range encRows {
		copy(c.encWords[i*c.kWords:(i+1)*c.kWords], row)
	}
	c.chkWords = make([]uint64, c.M*c.nWords)
	for ci, vars := range c.checkVars {
		row := c.chkWords[ci*c.nWords : (ci+1)*c.nWords]
		for _, v := range vars {
			row[v>>6] |= 1 << (uint(v) & 63)
		}
	}
}

// bpScratch is the per-decode working set, recycled through Code.scratch
// so steady-state encoding and decoding allocate nothing.
type bpScratch struct {
	c2v      []float32 // check→variable messages, edge-indexed
	total    []float32 // per-variable posterior (llr + incoming c2v)
	mbuf     []uint32  // one check's lazy v2c messages as float32 bits, len maxCheckDeg
	synd     []uint8   // per-check syndrome of cwWords, length M
	cnt      []uint8   // bit-flip: unsat checks per variable, kept zeroed
	touched  []int32   // bit-flip: variables with nonzero cnt this round
	cwWords  []uint64  // packed hard-decision codeword, nWords
	msgWords []uint64  // packed message staging for EncodeInto, kWords+1
}

func (c *Code) getScratch() *bpScratch {
	if sc, ok := c.scratch.Get().(*bpScratch); ok {
		return sc
	}
	return &bpScratch{
		c2v:      make([]float32, c.edges),
		total:    make([]float32, c.N),
		mbuf:     make([]uint32, c.maxCheckDeg),
		synd:     make([]uint8, c.M),
		cnt:      make([]uint8, c.N),
		touched:  make([]int32, 0, c.N),
		cwWords:  make([]uint64, c.nWords),
		msgWords: make([]uint64, c.kWords+1),
	}
}

func (c *Code) putScratch(sc *bpScratch) { c.scratch.Put(sc) }

// NewCode constructs an LDPC code with block length n and dimension k
// (so m = n-k checks), column weight 3, from the given seed. It retries
// a handful of random constructions until the parity-check matrix has
// full row rank (needed for systematic encoding); failure after the
// retries returns an error.
func NewCode(n, k int, seed uint64) (*Code, error) {
	if n <= 0 || k <= 0 || k >= n {
		return nil, fmt.Errorf("ldpc: invalid dimensions n=%d k=%d", n, k)
	}
	const colWeight = 3
	m := n - k
	if m < colWeight {
		return nil, fmt.Errorf("ldpc: too few checks (m=%d) for column weight %d", m, colWeight)
	}
	for attempt := 0; attempt < 32; attempt++ {
		rng := sim.NewRNG(seed + uint64(attempt)*0x9e3779b9)
		c, ok := tryConstruct(n, k, colWeight, rng)
		if ok {
			return c, nil
		}
	}
	return nil, fmt.Errorf("ldpc: could not build full-rank code n=%d k=%d", n, k)
}

// MustNewCode is NewCode for compiled-in parameters.
func MustNewCode(n, k int, seed uint64) *Code {
	c, err := NewCode(n, k, seed)
	if err != nil {
		panic(err)
	}
	return c
}

func tryConstruct(n, k, colWeight int, rng *sim.RNG) (*Code, bool) {
	m := n - k
	// Gallager-style construction: deal each column's colWeight edges to
	// distinct rows, keeping row weights balanced by drawing from a
	// shuffled pool of row slots.
	pool := make([]int32, 0, n*colWeight)
	for len(pool) < n*colWeight {
		perm := rng.Perm(m)
		for _, r := range perm {
			pool = append(pool, int32(r))
		}
	}
	checkVars := make([][]int32, m)
	varChecks := make([][]int32, n)
	idx := 0
	for v := 0; v < n; v++ {
		seen := make(map[int32]bool, colWeight)
		for len(varChecks[v]) < colWeight {
			if idx >= len(pool) {
				// Pool exhausted by duplicate skips; draw directly.
				r := int32(rng.Intn(m))
				if seen[r] {
					continue
				}
				seen[r] = true
				varChecks[v] = append(varChecks[v], r)
				checkVars[r] = append(checkVars[r], int32(v))
				continue
			}
			r := pool[idx]
			idx++
			if seen[r] {
				continue
			}
			seen[r] = true
			varChecks[v] = append(varChecks[v], r)
			checkVars[r] = append(checkVars[r], int32(v))
		}
	}
	// Every check must touch at least two variables for BP to be useful.
	for _, vs := range checkVars {
		if len(vs) < 2 {
			return nil, false
		}
	}

	// Build the dense H for elimination: m rows of n bits.
	rows := make([]bitset, m)
	for r := range rows {
		rows[r] = newBitset(n)
		for _, v := range checkVars[r] {
			rows[r].set(int(v))
		}
	}
	// Gauss-eliminate to find m pivot columns (parity positions) and the
	// encoder. Track row operations on an augmented identity so we can
	// express each eliminated row in terms of original rows — but for
	// encoding we only need the reduced rows themselves.
	work := make([]bitset, m)
	for i := range work {
		work[i] = rows[i].clone()
	}
	pivotCol := make([]int, 0, m)
	isPivot := make([]bool, n)
	rank := 0
	for col := 0; col < n && rank < m; col++ {
		sel := -1
		for r := rank; r < m; r++ {
			if work[r].get(col) {
				sel = r
				break
			}
		}
		if sel < 0 {
			continue
		}
		work[rank], work[sel] = work[sel], work[rank]
		for r := 0; r < m; r++ {
			if r != rank && work[r].get(col) {
				work[r].xor(work[rank])
			}
		}
		pivotCol = append(pivotCol, col)
		isPivot[col] = true
		rank++
	}
	if rank < m {
		return nil, false
	}
	// After full reduction, row i reads: x[pivotCol[i]] = sum of x[c] for
	// non-pivot columns c set in work[i]. Data positions are the
	// non-pivot columns; parity i is computed from the data bits.
	dataPos := make([]int, 0, k)
	for col := 0; col < n; col++ {
		if !isPivot[col] {
			dataPos = append(dataPos, col)
		}
	}
	colToData := make([]int, n)
	for i := range colToData {
		colToData[i] = -1
	}
	for i, c := range dataPos {
		colToData[c] = i
	}
	encRows := make([]bitset, m)
	for i := 0; i < m; i++ {
		encRows[i] = newBitset(k)
		row := work[i]
		for col := 0; col < n; col++ {
			if col == pivotCol[i] {
				continue
			}
			if row.get(col) {
				d := colToData[col]
				if d < 0 {
					// A second pivot column set in this row would
					// contradict full reduction.
					return nil, false
				}
				encRows[i].set(d)
			}
		}
	}
	posIsData := make([]bool, n)
	for _, c := range dataPos {
		posIsData[c] = true
	}
	c := &Code{
		N: n, K: k, M: m, ColWeight: colWeight,
		checkVars: checkVars,
		varChecks: varChecks,
		dataPos:   dataPos,
		parityPos: pivotCol,
		posIsData: posIsData,
	}
	c.buildDecodeIndex()
	c.buildEncodeWords(encRows)
	return c, true
}

// Encode maps a K-bit message to an N-bit codeword (values 0/1).
func (c *Code) Encode(msg []uint8) []uint8 {
	cw := make([]uint8, c.N)
	c.EncodeInto(msg, cw)
	return cw
}

// EncodeInto encodes msg into cw (length N) without allocating. The
// message is packed into machine words once and each parity bit costs
// kWords AND+XOR word ops plus one popcount, instead of a walk over the
// row's set bits.
func (c *Code) EncodeInto(msg, cw []uint8) {
	if len(msg) != c.K {
		panic(fmt.Sprintf("ldpc: message length %d, want %d", len(msg), c.K))
	}
	if len(cw) != c.N {
		panic(fmt.Sprintf("ldpc: codeword buffer length %d, want %d", len(cw), c.N))
	}
	sc := c.getScratch()
	PackBitsInto(msg, sc.msgWords[:c.kWords])
	c.encodeFromWords(sc.msgWords, cw)
	c.putScratch(sc)
}

// encodeFromWords encodes a packed K-bit message (msgWords[:kWords],
// LSB-first) into cw. parity(row · msg) over GF(2) is the parity of
// popcount(row AND msg); XOR-folding the per-word ANDs preserves
// popcount parity, so each row needs a single popcount at the end.
func (c *Code) encodeFromWords(msgWords []uint64, cw []uint8) {
	for i, pos := range c.dataPos {
		cw[pos] = uint8(msgWords[i>>6] >> (uint(i) & 63) & 1)
	}
	kw := c.kWords
	for i, pos := range c.parityPos {
		row := c.encWords[i*kw : i*kw+kw]
		var acc uint64
		for w, rw := range row {
			acc ^= rw & msgWords[w]
		}
		cw[pos] = uint8(bits.OnesCount64(acc) & 1)
	}
}

// Extract returns the K message bits embedded in an N-bit codeword.
func (c *Code) Extract(cw []uint8) []uint8 {
	msg := make([]uint8, c.K)
	c.ExtractInto(cw, msg)
	return msg
}

// ExtractInto copies the K message bits of cw into msg (length K).
func (c *Code) ExtractInto(cw, msg []uint8) {
	if len(msg) != c.K {
		panic(fmt.Sprintf("ldpc: message buffer length %d, want %d", len(msg), c.K))
	}
	for i, pos := range c.dataPos {
		msg[i] = cw[pos] & 1
	}
}

// syndromePacked fills synd with the per-check syndrome of the packed
// codeword and returns the number of unsatisfied checks.
func (c *Code) syndromePacked(cw []uint64, synd []uint8) int {
	unsat := 0
	nw := c.nWords
	cw = cw[:nw]
	for ci := 0; ci < c.M; ci++ {
		row := c.chkWords[ci*nw : ci*nw+nw]
		var acc uint64
		for w, rw := range row {
			acc ^= rw & cw[w]
		}
		s := uint8(bits.OnesCount64(acc) & 1)
		synd[ci] = s
		unsat += int(s)
	}
	return unsat
}
