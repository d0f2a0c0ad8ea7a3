package voxel

import (
	"encoding/binary"
	"sync"

	"silica/internal/ldpc"
	"silica/internal/sim"
)

// SectorPipeline is the full per-sector data path: payload bytes →
// LDPC-coded bits → voxel symbols → channel → soft demap → BP decode →
// payload bytes. It is the unit the write pipeline, verification, and
// the decode stack all share.
//
// A written sector has one form, in memory and on disk: its codeword's
// bits packed LSB-first into SectorBytes bytes, so a byte holds two
// four-bit symbols, the even-indexed one in its low nibble. That is the
// encoder's uint64 words written out little-endian, and the channel
// reads its symbols straight out of it (symbolAt). Only this package
// knows what a symbol is; the layers that store sectors hold bytes.
//
// The pipeline is safe for concurrent use. Hot paths run on a
// SectorScratch — a per-worker working set recycled through an internal
// pool — so the codec engine can fan sector jobs across cores without
// per-sector allocation.
type SectorPipeline struct {
	Codec    *ldpc.SectorCodec
	Mod      *Modulation
	Ch       Channel
	Demap    *Demapper
	MaxIters int

	scratch sync.Pool // *SectorScratch
}

// SectorScratch holds the reusable buffers of one in-flight sector
// encode or decode. A scratch may be used by one goroutine at a time;
// buffers returned by WriteSectorWith are valid until the scratch's
// next use or release.
type SectorScratch struct {
	sector []byte        // the encoded sector's bytes
	points []Point       // received channel observations
	llrs   []float32     // demapped bit LLRs
	hard   []uint64      // their packed hard decision
	codec  *ldpc.Scratch // sector codec working set, held across calls
}

// NewSectorPipeline wires a sector codec to a channel model.
func NewSectorPipeline(codec *ldpc.SectorCodec, ch Channel) *SectorPipeline {
	mod := NewModulation()
	return &SectorPipeline{
		Codec:    codec,
		Mod:      mod,
		Ch:       ch,
		Demap:    NewDemapper(mod, ch),
		MaxIters: 50,
	}
}

// symbols reports the voxel count of one coded sector.
func (p *SectorPipeline) symbols() int {
	return (p.Codec.EncodedBits() + BitsPerVoxel - 1) / BitsPerVoxel
}

// SectorBytes reports the length of one written sector: its symbols
// packed two a byte.
func (p *SectorPipeline) SectorBytes() int { return (p.symbols() + 1) / 2 }

// AcquireScratch returns a scratch from the pipeline's pool, allocating
// only when the pool is empty.
func (p *SectorPipeline) AcquireScratch() *SectorScratch {
	if sc, ok := p.scratch.Get().(*SectorScratch); ok {
		return sc
	}
	symbols := p.symbols()
	return &SectorScratch{
		sector: make([]byte, p.SectorBytes()),
		points: make([]Point, symbols),
		llrs:   make([]float32, symbols*BitsPerVoxel),
		hard:   make([]uint64, (symbols+15)/16),
		codec:  p.Codec.AcquireScratch(),
	}
}

// ReleaseScratch returns a scratch to the pool.
func (p *SectorPipeline) ReleaseScratch(sc *SectorScratch) { p.scratch.Put(sc) }

// WriteSector encodes a payload into the sector to be written. The
// returned slice is freshly allocated; hot paths use WriteSectorWith.
func (p *SectorPipeline) WriteSector(payload []byte) []uint8 {
	sc := p.AcquireScratch()
	out := append([]uint8(nil), p.WriteSectorWith(sc, payload)...)
	p.ReleaseScratch(sc)
	return out
}

// WriteSectorWith encodes a payload into a sector using sc's buffers:
// the codec's coded words are stored little-endian, the zero tail past
// EncodedBits padding the last symbol and, for an odd symbol count, the
// last byte's high nibble. The returned slice aliases sc and is valid
// until sc's next use; callers that retain the sector (e.g. platter
// media) must copy.
func (p *SectorPipeline) WriteSectorWith(sc *SectorScratch, payload []byte) []uint8 {
	storeWords(sc.sector, p.Codec.EncodeSectorWith(sc.codec, payload))
	return sc.sector
}

// WriteSectorsInto encodes payloads[i] into dsts[i] (each of length
// SectorBytes) on one scratch, the batched form the burn path uses to
// amortize scratch and table walks across a whole track.
func (p *SectorPipeline) WriteSectorsInto(sc *SectorScratch, payloads [][]byte, dsts [][]uint8) {
	if len(payloads) != len(dsts) {
		panic("voxel: payload/destination count mismatch")
	}
	for i, payload := range payloads {
		storeWords(dsts[i][:p.SectorBytes()], p.Codec.EncodeSectorWith(sc.codec, payload))
	}
}

// storeWords writes the first len(dst) bytes of words, little-endian.
func storeWords(dst []byte, words []uint64) {
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], words[i>>3])
	}
	for ; i < len(dst); i++ {
		dst[i] = byte(words[i>>3] >> (8 * (i & 7)))
	}
}

// ReadSectorWithBuf pushes a written sector (SectorBytes long) through
// the read channel and decodes it on caller-owned scratch into the
// caller's payload buffer (length ≥ the codec's PayloadBytes). rng
// drives the stochastic read noise. With a non-nil buffer steady-state
// decode allocates nothing; pass nil to allocate the payload.
func (p *SectorPipeline) ReadSectorWithBuf(sc *SectorScratch, sector []uint8, rng *sim.RNG, payload []byte) ldpc.SectorDecode {
	received := p.Ch.TransmitInto(p.Mod, sector, p.symbols(), rng, sc.points[:0])
	p.Demap.LLRsInto(received, sc.llrs, sc.hard)
	return p.Codec.DecodeSectorWith(sc.codec, sc.llrs[:p.Codec.EncodedBits()], sc.hard, p.MaxIters, payload)
}
