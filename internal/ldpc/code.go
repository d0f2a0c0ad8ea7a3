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
//
// Codewords and messages travel packed LSB-first in uint64 words: bit i
// of a K-bit message is words[i/64] bit i%64, the little-endian byte
// order of the framed sector, and a codeword's position p is bit p.
type Code struct {
	N, K, M   int
	ColWeight int

	// Sparse parity-check structure, used by the decoders. Both
	// adjacency lists are sorted ascending so the decode inner loops
	// stream through posterior/codeword memory instead of hopping.
	checkVars [][]int32 // per check row: variable indices
	varChecks [][]int32 // per variable: check row indices

	dataPos   []int // message bit -> codeword position
	parityPos []int // parity bit -> codeword position

	// dataRuns and parityRuns cut dataPos and parityPos into maximal
	// runs of consecutive positions, so placing a block's bits is a few
	// word-wide copies. The service's (512, 384) code has one of each:
	// parity at 0–127, message at 128–511.
	dataRuns, parityRuns []bitRun

	// Nibble tables (nibbleTable), an mWords-word entry for each of the
	// 16 values of each nibble: encTab[j][v] is the parity vector of
	// message bits 4j..4j+3 holding v, synTab[j][v] the syndrome of
	// codeword bits 4j..4j+3 holding v. Bits past K (past N) contribute
	// nothing, so a word's tail never needs clearing. A block's parity or
	// syndrome is the XOR of one entry per nibble.
	encTab []uint64
	synTab []uint64
	kWords int // words per packed K-bit message
	nWords int // words per packed N-bit codeword
	mWords int // words per packed M-bit parity or syndrome vector

	// Decode acceleration, built once at construction. BP messages live
	// in flat arrays indexed by edge; edgeOff[ci] is the first edge of
	// check ci. Flat storage keeps the inner loops cache-friendly and
	// lets one pooled scratch serve every decode.
	edgeOff     []int32 // len M+1: prefix offsets into the edge arrays
	edges       int     // E: total edge count
	maxCheckDeg int     // widest check row

	scratch sync.Pool // *bpScratch, sized for this code
}

// bitRun says that n consecutive bits from index idx of a packed message
// (or parity vector) sit at codeword positions pos..pos+n-1.
type bitRun struct{ idx, pos, n int }

// runsOf cuts an ascending position map into maximal runs.
func runsOf(positions []int) []bitRun {
	var runs []bitRun
	for i, pos := range positions {
		if last := len(runs) - 1; last >= 0 && runs[last].pos+runs[last].n == pos {
			runs[last].n++
			continue
		}
		runs = append(runs, bitRun{idx: i, pos: pos, n: 1})
	}
	return runs
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

// buildTables cuts the position maps into runs and builds the nibble
// tables from the columns of the encoder (encRows, one K-bit row per
// parity bit) and of the parity-check matrix.
func (c *Code) buildTables(encRows []bitset) {
	c.kWords = (c.K + 63) / 64
	c.nWords = (c.N + 63) / 64
	c.mWords = (c.M + 63) / 64
	c.dataRuns, c.parityRuns = runsOf(c.dataPos), runsOf(c.parityPos)
	encCols := make([]bitset, c.K)
	for d := range encCols {
		encCols[d] = newBitset(c.M)
	}
	for i, row := range encRows {
		for d := range encCols {
			if row.get(d) {
				encCols[d].set(i)
			}
		}
	}
	chkCols := make([]bitset, c.N)
	for v, checks := range c.varChecks {
		chkCols[v] = newBitset(c.M)
		for _, ci := range checks {
			chkCols[v].set(int(ci))
		}
	}
	c.encTab = nibbleTable(encCols, c.mWords)
	c.synTab = nibbleTable(chkCols, c.mWords)
}

// nibbleTable returns the nibble table of cols (M-bit columns of words
// words each): entry (j, v) is the XOR of cols[4j+b] over the set bits b
// of v, missing columns counting as zero. It is stored word-major —
// word w of entry (j, v) at (w*nibbles + j)*16 + v, nibbles rounded up
// to whole source words — so tableXOR folds each output word in one
// register, and a source word's tail nibbles read zero entries.
func nibbleTable(cols []bitset, words int) []uint64 {
	nibbles := (len(cols) + 63) / 64 * 16
	tab := make([]uint64, words*nibbles*16)
	for w := 0; w < words; w++ {
		t := tab[w*nibbles*16:]
		for j := 0; j < nibbles; j++ {
			for v := 1; v < 16; v++ {
				e := t[j*16+v&(v-1)]
				if col := 4*j + bits.TrailingZeros(uint(v)); col < len(cols) {
					e ^= cols[col][w]
				}
				t[j*16+v] = e
			}
		}
	}
	return tab
}

// tableXOR folds a nibble table over the bits of src (one table entry
// per nibble, 4 bits a step) into dst, len(dst) words: the GF(2)
// product of the table's columns with src.
func tableXOR(tab, src []uint64, dst []uint64) {
	stride := len(tab) / len(dst)
	for w := range dst {
		t := tab[w*stride : (w+1)*stride]
		var acc uint64
		for i, x := range src[:stride/256] {
			row := (*[256]uint64)(t[i*256:])
			for k := 0; k < 256; k += 16 {
				acc ^= row[(k|int(x&15))&255]
				x >>= 4
			}
		}
		dst[w] = acc
	}
}

// bpScratch is the per-block working set, recycled through Code.scratch
// so steady-state encoding and decoding allocate nothing.
type bpScratch struct {
	c2v     []float32 // check→variable messages, edge-indexed
	total   []float32 // per-variable posterior (llr + incoming c2v)
	mbuf    []uint32  // one check's lazy v2c messages as float32 bits, len maxCheckDeg
	synd    []uint8   // per-check syndrome of cwWords, length M
	cwWords []uint64  // packed hard-decision codeword, nWords
	msg     []uint64  // one block's packed message, kWords
	vec     []uint64  // one parity or syndrome vector, mWords
}

func (c *Code) getScratch() *bpScratch {
	if sc, ok := c.scratch.Get().(*bpScratch); ok {
		return sc
	}
	return &bpScratch{
		c2v:     make([]float32, c.edges),
		total:   make([]float32, c.N),
		mbuf:    make([]uint32, c.maxCheckDeg),
		synd:    make([]uint8, c.M),
		cwWords: make([]uint64, c.nWords),
		msg:     make([]uint64, c.kWords),
		vec:     make([]uint64, c.mWords),
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
	c := &Code{
		N: n, K: k, M: m, ColWeight: colWeight,
		checkVars: checkVars,
		varChecks: varChecks,
		dataPos:   dataPos,
		parityPos: pivotCol,
	}
	c.buildDecodeIndex()
	c.buildTables(encRows)
	return c, true
}

// encodeBlock encodes the K message bits at bit mOff of msg into the N
// codeword bits at bit cOff of cw, leaving cw's other bits alone: the
// block's message is cut out once, its parity is the XOR of one encTab
// entry per message nibble, and both are copied along their runs.
func (c *Code) encodeBlock(msg []uint64, mOff int, cw []uint64, cOff int, sc *bpScratch) {
	copyBits(sc.msg, 0, msg, mOff, c.K)
	tableXOR(c.encTab, sc.msg, sc.vec)
	for _, r := range c.dataRuns {
		copyBits(cw, cOff+r.pos, sc.msg, r.idx, r.n)
	}
	for _, r := range c.parityRuns {
		copyBits(cw, cOff+r.pos, sc.vec, r.idx, r.n)
	}
}

// loadHard copies the N hard-decision bits at bit off of hard into
// sc.cwWords, fills sc.synd with their syndrome (the XOR of one synTab
// entry per codeword nibble) and returns the number of unsatisfied
// checks.
func (c *Code) loadHard(hard []uint64, off int, sc *bpScratch) int {
	copyBits(sc.cwWords, 0, hard, off, c.N)
	tableXOR(c.synTab, sc.cwWords, sc.vec)
	unsat := 0
	for ci := range sc.synd {
		s := uint8(sc.vec[ci>>6] >> (uint(ci) & 63) & 1)
		sc.synd[ci] = s
		unsat += int(s)
	}
	return unsat
}

// extractBlock copies the K message bits of the decoded codeword in
// sc.cwWords to bit mOff of msg along the data runs.
func (c *Code) extractBlock(sc *bpScratch, msg []uint64, mOff int) {
	for _, r := range c.dataRuns {
		copyBits(msg, mOff+r.idx, sc.cwWords, r.pos, r.n)
	}
}
