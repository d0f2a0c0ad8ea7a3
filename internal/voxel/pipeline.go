package voxel

import (
	"sync"

	"silica/internal/ldpc"
	"silica/internal/sim"
)

// SectorPipeline is the full per-sector data path: payload bytes →
// LDPC-coded bits → voxel symbols → channel → soft demap → BP decode →
// payload bytes. It is the unit the write pipeline, verification, and
// the decode stack all share.
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
	symbols []uint8       // modulated symbols
	points  []Point       // received channel observations
	llrs    []float32     // demapped bit LLRs
	hard    []uint64      // their packed hard decision
	codec   *ldpc.Scratch // sector codec working set, held across calls
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

// SymbolsPerSector reports the voxel count of one coded sector.
func (p *SectorPipeline) SymbolsPerSector() int {
	return (p.Codec.EncodedBits() + BitsPerVoxel - 1) / BitsPerVoxel
}

// AcquireScratch returns a scratch from the pipeline's pool, allocating
// only when the pool is empty.
func (p *SectorPipeline) AcquireScratch() *SectorScratch {
	if sc, ok := p.scratch.Get().(*SectorScratch); ok {
		return sc
	}
	symbols := p.SymbolsPerSector()
	return &SectorScratch{
		symbols: make([]uint8, symbols),
		points:  make([]Point, symbols),
		llrs:    make([]float32, symbols*BitsPerVoxel),
		hard:    make([]uint64, (symbols+15)/16),
		codec:   p.Codec.AcquireScratch(),
	}
}

// ReleaseScratch returns a scratch to the pool.
func (p *SectorPipeline) ReleaseScratch(sc *SectorScratch) { p.scratch.Put(sc) }

// WriteSector encodes a payload into the voxel symbols to be written.
// The returned slice is freshly allocated; hot paths use WriteSectorWith.
func (p *SectorPipeline) WriteSector(payload []byte) []uint8 {
	sc := p.AcquireScratch()
	out := append([]uint8(nil), p.WriteSectorWith(sc, payload)...)
	p.ReleaseScratch(sc)
	return out
}

// WriteSectorWith encodes a payload into voxel symbols using sc's
// buffers: the codec's packed coded bits are cut four to a symbol, the
// zero tail past EncodedBits padding the last one. The returned slice
// aliases sc and is valid until sc's next use; callers that retain
// symbols (e.g. platter media) must copy.
func (p *SectorPipeline) WriteSectorWith(sc *SectorScratch, payload []byte) []uint8 {
	cutSymbols(p.Codec.EncodeSectorWith(sc.codec, payload), sc.symbols)
	return sc.symbols
}

// WriteSectorsInto encodes payloads[i] into dsts[i] (each of length
// SymbolsPerSector) on one scratch, the batched form the burn path uses
// to amortize scratch and table walks across a whole track.
func (p *SectorPipeline) WriteSectorsInto(sc *SectorScratch, payloads [][]byte, dsts [][]uint8) {
	if len(payloads) != len(dsts) {
		panic("voxel: payload/destination count mismatch")
	}
	for i, payload := range payloads {
		cutSymbols(p.Codec.EncodeSectorWith(sc.codec, payload), dsts[i][:p.SymbolsPerSector()])
	}
}

// ReadSectorWithBuf pushes written symbols through the read channel and
// decodes them on caller-owned scratch into the caller's payload buffer
// (length ≥ the codec's PayloadBytes). rng drives the stochastic read
// noise. With a non-nil buffer steady-state decode allocates nothing;
// pass nil to allocate the payload.
func (p *SectorPipeline) ReadSectorWithBuf(sc *SectorScratch, symbols []uint8, rng *sim.RNG, payload []byte) ldpc.SectorDecode {
	received := p.Ch.TransmitInto(p.Mod, symbols, rng, sc.points[:0])
	p.Demap.LLRsInto(received, sc.llrs, sc.hard)
	return p.Codec.DecodeSectorWith(sc.codec, sc.llrs[:p.Codec.EncodedBits()], sc.hard, p.MaxIters, payload)
}
