package ldpc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
)

// SectorCodec frames a glass sector: a user payload plus a CRC32 is
// split across as many LDPC codewords as needed. The CRC implements the
// paper's "per-sector checksums to verify that the result of the LDPC
// decode procedure is correct" (§5); a failed CRC or failed BP decode
// turns the sector into an erasure for the network-coding layer above.
//
// A SectorCodec is safe for concurrent use: the codec engine drives one
// shared instance from every worker, with per-call working memory drawn
// from an internal pool so steady-state encode/decode does not allocate.
// Callers looping over many sectors (a track burn, a scrub sweep) can
// hold a Scratch across the loop via AcquireScratch and the *With
// variants, amortizing even the pool round-trip.
type SectorCodec struct {
	Code         *Code
	PayloadBytes int // user bytes per sector
	blocks       int // LDPC codewords per sector

	scratch sync.Pool // *Scratch
}

const crcBytes = 4

// flipBudget caps the Gallager-B first pass of sector decode. Light
// error patterns converge in one or two rounds; anything still unsett-
// led after this many is cheaper to hand to BP than to keep flipping.
const flipBudget = 8

// flipGate is the largest unsatisfied-check count of a block's hard
// decision at which the Gallager-B pass is still tried; above it the
// block goes straight to BP. A pass that exhausts flipBudget costs about
// half a BP decode and is thrown away, so it pays only where it usually
// settles. On 8064 blocks at the operating point (DefaultChannel, the
// (512, 384) code) it settles, by initial unsat count,
//
//	unsat    4-7   8-11  12-15  16-19  20-23  24-27  28-31  32+
//	settles  92 %  84 %  72 %   51 %   31 %   21 %   11 %   1 %
//
// and the decode stage costs 0.23 ms a sector for any gate in 15-19
// (0.26 with no Gallager-B at all, 0.39 ungated), while light noise
// keeps a tier nearly 4x cheaper than BP (BenchmarkDecodeSector).
// TestFlipGateOperatingPoint (internal/voxel) re-measures the table.
const flipGate = 17

// Per-block decode path taken, recorded so a CRC failure can re-run
// exactly the blocks where the cheap pass may have settled on a wrong
// codeword.
const (
	blockClean uint8 = iota // hard decision was already a codeword
	blockFlip               // bit-flipping converged
	blockBP                 // full BP ran
)

// Scratch is the working set of one sector encode or decode. Obtain one
// with AcquireScratch (or implicitly through the non-With methods); a
// Scratch is not safe for concurrent use but may be reused serially for
// any number of calls on the codec it came from.
type Scratch struct {
	framed  []byte  // PayloadBytes + crcBytes
	msgBits []uint8 // blocks * K message bits (decode staging)
	// msgWords is the packed framed payload: blocks*K bits plus one
	// padding word for unaligned block extraction. The tail past the
	// framed bytes is zeroed once here at allocation and never written
	// again — packBytesInto stops at the framed length — so encode does
	// not re-zero padding per sector.
	msgWords   []uint64
	blockWords []uint64 // one packed K-bit block, when K%64 != 0
	blkOK      []bool   // per-block decode success
	blkMode    []uint8  // per-block path taken (blockClean/Flip/BP)
	bp         *bpScratch
}

// NewSectorCodec wraps code to carry payloadBytes of user data per
// sector.
func NewSectorCodec(code *Code, payloadBytes int) (*SectorCodec, error) {
	if payloadBytes <= 0 {
		return nil, fmt.Errorf("ldpc: payload must be positive, got %d", payloadBytes)
	}
	totalBits := (payloadBytes + crcBytes) * 8
	blocks := (totalBits + code.K - 1) / code.K
	return &SectorCodec{Code: code, PayloadBytes: payloadBytes, blocks: blocks}, nil
}

// AcquireScratch returns a pooled Scratch for use with the *With
// methods. Release it with ReleaseScratch when done.
func (sc *SectorCodec) AcquireScratch() *Scratch {
	if ss, ok := sc.scratch.Get().(*Scratch); ok {
		return ss
	}
	totalBits := sc.blocks * sc.Code.K
	return &Scratch{
		framed:     make([]byte, sc.PayloadBytes+crcBytes),
		msgBits:    make([]uint8, totalBits),
		msgWords:   make([]uint64, (totalBits+63)/64+1),
		blockWords: make([]uint64, sc.Code.kWords+1),
		blkOK:      make([]bool, sc.blocks),
		blkMode:    make([]uint8, sc.blocks),
		bp:         sc.Code.getScratch(),
	}
}

// ReleaseScratch returns a Scratch to the pool.
func (sc *SectorCodec) ReleaseScratch(ss *Scratch) { sc.scratch.Put(ss) }

// Blocks reports the number of LDPC codewords per sector.
func (sc *SectorCodec) Blocks() int { return sc.blocks }

// EncodedBits reports the total coded length of one sector in bits
// (i.e. the number of channel symbols × bits-per-symbol it occupies).
func (sc *SectorCodec) EncodedBits() int { return sc.blocks * sc.Code.N }

// EncodeSectorInto maps payload (exactly PayloadBytes long) to the
// sector's coded bits in dst, which must have length EncodedBits. It
// returns dst and does not allocate in steady state.
func (sc *SectorCodec) EncodeSectorInto(payload []byte, dst []uint8) []uint8 {
	ss := sc.AcquireScratch()
	sc.EncodeSectorWith(ss, payload, dst)
	sc.ReleaseScratch(ss)
	return dst
}

// EncodeSectorWith is EncodeSectorInto on caller-held scratch: the
// framed payload is packed into machine words once and every LDPC block
// encodes straight from the word layout.
func (sc *SectorCodec) EncodeSectorWith(ss *Scratch, payload []byte, dst []uint8) []uint8 {
	if len(payload) != sc.PayloadBytes {
		panic(fmt.Sprintf("ldpc: payload %d bytes, want %d", len(payload), sc.PayloadBytes))
	}
	if len(dst) != sc.EncodedBits() {
		panic(fmt.Sprintf("ldpc: coded buffer %d bits, want %d", len(dst), sc.EncodedBits()))
	}
	copy(ss.framed, payload)
	binary.LittleEndian.PutUint32(ss.framed[sc.PayloadBytes:], crc32.ChecksumIEEE(payload))
	packBytesInto(ss.framed, ss.msgWords)
	code := sc.Code
	for b := 0; b < sc.blocks; b++ {
		words := ss.msgWords[b*code.K>>6:]
		if code.K&63 != 0 {
			extractBits(ss.msgWords, b*code.K, code.K, ss.blockWords)
			words = ss.blockWords
		}
		code.encodeFromWords(words, dst[b*code.N:(b+1)*code.N])
	}
	return dst
}

// SectorDecode is the outcome of decoding one sector.
type SectorDecode struct {
	Payload     []byte
	OK          bool // decoded and CRC-verified
	FailedBlock int  // first failing LDPC block, or -1
	// Margin is the fraction of the iteration budget left unused by the
	// hardest block, in [0,1]. Verification (§5) records this to decide
	// whether a file is durably stored: low margin on a fresh platter
	// predicts trouble as read noise grows over time.
	Margin     float64
	Iterations int // total decoder iterations across blocks
}

// DecodeSectorInto decodes a sector from per-bit channel LLRs (length
// EncodedBits), writing the payload into the caller's buffer (length ≥
// PayloadBytes); pass nil to allocate it. Decoder working memory is
// pooled, so with a caller buffer steady-state decode performs zero
// allocations.
func (sc *SectorCodec) DecodeSectorInto(llr []float64, maxIter int, payload []byte) SectorDecode {
	ss := sc.AcquireScratch()
	res := sc.DecodeSectorWith(ss, llr, maxIter, payload)
	sc.ReleaseScratch(ss)
	return res
}

// DecodeSectorWith is DecodeSectorInto on caller-held scratch.
//
// Each block takes the cheapest path that can finish (decodeBlockInto):
// hard-decide the LLR signs into packed words and take the syndrome once
// (a clean read costs one popcount-sized pass, Iterations=0); run a few
// rounds of packed bit-flipping where few enough checks are unsatisfied
// for it to usually settle (flipGate); otherwise, or when it does not,
// full BP. Bit-flipping can in principle settle on a wrong codeword that
// BP would have decoded, so if the sector CRC then fails, every
// bit-flipped block is re-run through BP and the CRC re-checked — the
// fast path never loses a sector the pure-BP path would have recovered.
func (sc *SectorCodec) DecodeSectorWith(ss *Scratch, llr []float64, maxIter int, payload []byte) SectorDecode {
	if len(llr) != sc.EncodedBits() {
		panic(fmt.Sprintf("ldpc: llr length %d, want %d", len(llr), sc.EncodedBits()))
	}
	if maxIter <= 0 {
		maxIter = 50
	}
	code := sc.Code
	worst, total := 0, 0
	for b := 0; b < sc.blocks; b++ {
		iters, blkOK, mode := code.decodeBlockInto(llr[b*code.N:(b+1)*code.N], maxIter, ss.bp, ss.msgBits[b*code.K:(b+1)*code.K])
		ss.blkMode[b], ss.blkOK[b] = mode, blkOK
		total += iters
		if iters > worst {
			worst = iters
		}
	}
	ok := sc.frameOK(ss)
	if !ok {
		redid := false
		for b := 0; b < sc.blocks; b++ {
			if ss.blkMode[b] != blockFlip {
				continue
			}
			iters, blkOK := code.decodeBP(llr[b*code.N:(b+1)*code.N], maxIter, ss.bp)
			redid = true
			ss.blkMode[b], ss.blkOK[b] = blockBP, blkOK
			total += iters
			if iters > worst {
				worst = iters
			}
			code.extractWordsInto(ss.bp.cwWords, ss.msgBits[b*code.K:(b+1)*code.K])
		}
		if redid {
			ok = sc.frameOK(ss)
		}
	}
	failed := -1
	for b := 0; b < sc.blocks; b++ {
		if !ss.blkOK[b] {
			failed = b
			break
		}
	}
	ok = ok && failed < 0
	if payload == nil {
		payload = make([]byte, sc.PayloadBytes)
	}
	copy(payload[:sc.PayloadBytes], ss.framed)
	margin := 1 - float64(worst)/float64(maxIter)
	if !ok {
		margin = 0
	}
	return SectorDecode{
		Payload:     payload[:sc.PayloadBytes],
		OK:          ok,
		FailedBlock: failed,
		Margin:      margin,
		Iterations:  total,
	}
}

// frameOK packs the decoded message bits back into framed bytes and
// verifies the sector CRC.
func (sc *SectorCodec) frameOK(ss *Scratch) bool {
	framedBits := ss.msgBits[:(sc.PayloadBytes+crcBytes)*8]
	BitsToBytesInto(framedBits, ss.framed)
	want := binary.LittleEndian.Uint32(ss.framed[sc.PayloadBytes:])
	return crc32.ChecksumIEEE(ss.framed[:sc.PayloadBytes]) == want
}

// decodeBlockInto decodes one LDPC block by the cheapest means that can
// finish, writes the K extracted message bits into msg, and reports the
// iteration count, success, and which path it took. One packed hard
// decision and its syndrome feed every tier.
func (c *Code) decodeBlockInto(llr []float64, maxIter int, sc *bpScratch, msg []uint8) (iters int, ok bool, mode uint8) {
	c.hardPackLLR(llr, sc.cwWords)
	unsat := c.syndromePacked(sc.cwWords, sc.synd)
	mode = blockBP
	switch {
	case unsat == 0:
		ok, mode = true, blockClean
	case unsat > flipGate:
		iters, ok = c.layeredBP(llr, maxIter, sc, unsat)
	default:
		if iters, ok = c.bitFlip(sc, flipBudget, unsat); ok {
			mode = blockFlip
		} else {
			// The failed pass flipped cwWords and synd in place; BP must
			// start from the channel's decision, so it is taken again.
			iters, ok = c.decodeBP(llr, maxIter, sc)
		}
	}
	c.extractWordsInto(sc.cwWords, msg)
	return iters, ok, mode
}

// FlipTrial measures one block of channel LLRs for the flipGate table:
// its hard decision's unsatisfied-check count, whether that is within
// the gate, and whether Gallager-B at flipBudget settles it regardless.
func (c *Code) FlipTrial(llr []float64) (unsat int, gated, flipOK bool) {
	sc := c.getScratch()
	defer c.putScratch(sc)
	c.hardPackLLR(llr, sc.cwWords)
	unsat = c.syndromePacked(sc.cwWords, sc.synd)
	_, flipOK = c.bitFlip(sc, flipBudget, unsat)
	return unsat, unsat <= flipGate, flipOK
}
