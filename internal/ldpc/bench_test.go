package ldpc

import (
	"testing"

	"silica/internal/sim"
)

// benchCodec is the service's default sector shape: a 1000-byte payload
// over a rate-3/4 (512, 384) code.
func benchCodec(b *testing.B) *SectorCodec {
	b.Helper()
	code, err := NewCode(512, 384, 0xbeef^1)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := NewSectorCodec(code, 1000)
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

// BenchmarkEncodeSector measures the steady-state per-sector encode:
// framing + CRC + systematic LDPC encoding into a reused bit buffer.
func BenchmarkEncodeSector(b *testing.B) {
	sc := benchCodec(b)
	rng := sim.NewRNG(3)
	payload := make([]byte, sc.PayloadBytes)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	dst := make([]uint8, sc.EncodedBits())
	b.ReportAllocs()
	b.SetBytes(int64(sc.PayloadBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.EncodeSectorInto(payload, dst)
	}
}

// BenchmarkDecodeSector measures the steady-state per-sector decode at
// a light error load: hard LLRs of one magnitude with about two flipped
// bits per block. Min-sum settles equal-magnitude LLRs more slowly than
// the demapper's soft ones, so the channel-fed decode
// (BenchmarkSectorReadStages/ldpc in internal/voxel) is the service's
// number; this one tracks the codec alone.
func BenchmarkDecodeSector(b *testing.B) {
	sc := benchCodec(b)
	rng := sim.NewRNG(4)
	payload := make([]byte, sc.PayloadBytes)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	coded := sc.EncodeSectorInto(payload, make([]uint8, sc.EncodedBits()))
	rx := append([]uint8(nil), coded...)
	for k := 0; k < sc.Blocks()*2; k++ {
		rx[rng.Intn(len(rx))] ^= 1
	}
	llr := HardLLR(rx, 4)
	buf := make([]byte, sc.PayloadBytes)
	b.ReportAllocs()
	b.SetBytes(int64(sc.PayloadBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sc.DecodeSectorInto(llr, 50, buf)
		if !res.OK {
			b.Fatal("decode failed")
		}
	}
}

// BenchmarkDecodeSectorBP decodes a heavier error load (about six
// flipped bits per block at lower confidence), so BP runs more sweeps
// per block: the load the scrub/verify loops hit on marginal media.
func BenchmarkDecodeSectorBP(b *testing.B) {
	sc := benchCodec(b)
	rng := sim.NewRNG(5)
	payload := make([]byte, sc.PayloadBytes)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	coded := sc.EncodeSectorInto(payload, make([]uint8, sc.EncodedBits()))
	rx := append([]uint8(nil), coded...)
	for k := 0; k < sc.Blocks()*6; k++ {
		rx[rng.Intn(len(rx))] ^= 1
	}
	llr := HardLLR(rx, 2)
	buf := make([]byte, sc.PayloadBytes)
	b.ReportAllocs()
	b.SetBytes(int64(sc.PayloadBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sc.DecodeSectorInto(llr, 50, buf)
		if !res.OK {
			b.Fatal("decode failed")
		}
	}
}
