package ldpc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
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

// Scratch is the working set of one sector encode or decode. Obtain one
// with AcquireScratch (or implicitly through the non-With methods); a
// Scratch is not safe for concurrent use but may be reused serially for
// any number of calls on the codec it came from.
type Scratch struct {
	framed []byte // PayloadBytes + crcBytes
	// msg is the framed payload packed into blocks*K bits: encode packs
	// the framed bytes into it (zero past them) and every block encodes
	// from it; decode extracts every block's message into it and stores
	// it back into framed.
	msg []uint64
	// coded is the sector's packed coded bits. Encode writes exactly
	// EncodedBits of it; the tail past them stays zero from allocation,
	// so a symbol cut from the last word is zero-padded.
	coded []uint64
	// llr and hard stage DecodeSectorInto's float64 input as the float32
	// LLRs and packed hard decision DecodeSectorWith takes; allocated on
	// first use.
	llr  []float32
	hard []uint64
	bp   *bpScratch
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
	return &Scratch{
		framed: make([]byte, sc.PayloadBytes+crcBytes),
		msg:    make([]uint64, (sc.blocks*sc.Code.K+63)/64),
		coded:  make([]uint64, (sc.EncodedBits()+63)/64),
		bp:     sc.Code.getScratch(),
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
// sector's coded bits in dst, one bit a byte, which must have length
// EncodedBits. It returns dst and does not allocate in steady state.
func (sc *SectorCodec) EncodeSectorInto(payload []byte, dst []uint8) []uint8 {
	if len(dst) != sc.EncodedBits() {
		panic(fmt.Sprintf("ldpc: coded buffer %d bits, want %d", len(dst), sc.EncodedBits()))
	}
	ss := sc.AcquireScratch()
	coded := sc.EncodeSectorWith(ss, payload)
	for i := range dst {
		dst[i] = uint8(coded[i>>6] >> (uint(i) & 63) & 1)
	}
	sc.ReleaseScratch(ss)
	return dst
}

// EncodeSectorWith encodes payload on caller-held scratch and returns
// the sector's coded bits packed LSB-first: block b's codeword position
// p is bit b*N+p. The result aliases ss and is valid until its next use;
// bits past EncodedBits are zero.
func (sc *SectorCodec) EncodeSectorWith(ss *Scratch, payload []byte) []uint64 {
	if len(payload) != sc.PayloadBytes {
		panic(fmt.Sprintf("ldpc: payload %d bytes, want %d", len(payload), sc.PayloadBytes))
	}
	copy(ss.framed, payload)
	binary.LittleEndian.PutUint32(ss.framed[sc.PayloadBytes:], crc32.ChecksumIEEE(payload))
	packBytesInto(ss.framed, ss.msg)
	code := sc.Code
	for b := 0; b < sc.blocks; b++ {
		code.encodeBlock(ss.msg, b*code.K, ss.coded, b*code.N, ss.bp)
	}
	return ss.coded
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
// PayloadBytes); pass nil to allocate it. Each LLR is rounded to the
// float32 the decoder works in (+0 added, so a zero of either sign
// decides bit 0) and its sign packed as the hard decision, then the
// sector goes through DecodeSectorWith. Working memory is pooled, so
// with a caller buffer steady-state decode performs zero allocations.
func (sc *SectorCodec) DecodeSectorInto(llr []float64, maxIter int, payload []byte) SectorDecode {
	if len(llr) != sc.EncodedBits() {
		panic(fmt.Sprintf("ldpc: llr length %d, want %d", len(llr), sc.EncodedBits()))
	}
	ss := sc.AcquireScratch()
	if ss.llr == nil {
		ss.llr = make([]float32, len(llr))
		ss.hard = make([]uint64, (len(llr)+63)/64)
	}
	clear(ss.hard)
	for i, x := range llr {
		f := float32(x) + 0
		ss.llr[i] = f
		ss.hard[i>>6] |= uint64(math.Float32bits(f)>>31) << (uint(i) & 63)
	}
	res := sc.DecodeSectorWith(ss, ss.llr, ss.hard, maxIter, payload)
	sc.ReleaseScratch(ss)
	return res
}

// DecodeSectorWith decodes a sector on caller-held scratch from its
// float32 channel LLRs (length EncodedBits, positive favouring bit 0,
// never -0.0) and their hard decision packed LSB-first in hard (bit i
// set when llr[i] < 0), as the voxel demapper emits them.
//
// Each block's hard decision is copied out of hard and its syndrome
// folded from the nibble table (loadHard); a block that is already a
// codeword is done (a clean read costs that, Iterations=0), and every
// other block runs layered min-sum BP. The sector CRC is then checked
// once: a failed block or a failed CRC makes the sector an erasure.
func (sc *SectorCodec) DecodeSectorWith(ss *Scratch, llr []float32, hard []uint64, maxIter int, payload []byte) SectorDecode {
	if len(llr) != sc.EncodedBits() || len(hard)*64 < len(llr) {
		panic(fmt.Sprintf("ldpc: %d LLRs and %d hard-decision bits, want %d of each", len(llr), len(hard)*64, sc.EncodedBits()))
	}
	if maxIter <= 0 {
		maxIter = 50
	}
	code := sc.Code
	worst, total, failed := 0, 0, -1
	for b := 0; b < sc.blocks; b++ {
		unsat := code.loadHard(hard, b*code.N, ss.bp)
		iters, blkOK := code.layeredBP(llr[b*code.N:(b+1)*code.N], maxIter, ss.bp, unsat)
		code.extractBlock(ss.bp, ss.msg, b*code.K)
		if !blkOK && failed < 0 {
			failed = b
		}
		total += iters
		worst = max(worst, iters)
	}
	storeBytes(ss.msg, ss.framed)
	want := binary.LittleEndian.Uint32(ss.framed[sc.PayloadBytes:])
	ok := failed < 0 && crc32.ChecksumIEEE(ss.framed[:sc.PayloadBytes]) == want
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
