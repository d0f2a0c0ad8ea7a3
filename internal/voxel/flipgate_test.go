package voxel

import (
	"testing"

	"silica/internal/sim"
)

// TestFlipGateOperatingPoint is the evidence beside ldpc's flipGate:
// the sector decoder tries Gallager-B only on blocks whose hard decision
// leaves at most that many checks unsatisfied, because a failed pass is
// pure loss and above the gate it mostly fails. Bucket real
// DefaultChannel blocks by that count, log Gallager-B's success per
// bucket, and require the gate to sit where the table says it should:
// still winning at least half the time in its own bucket, and losing
// clearly two buckets further up. A retuned channel or code that moves
// the table fails here instead of silently decoding through a stale
// threshold.
func TestFlipGateOperatingPoint(t *testing.T) {
	const (
		payloads = 8
		reads    = 48
		width    = 4 // unsat counts per bucket
	)
	p := servicePipeline(t, DefaultChannel())
	code := p.Codec.Code
	sc := p.AcquireScratch()
	defer p.ReleaseScratch(sc)
	type bucket struct{ blocks, flipOK int }
	var table []bucket
	total, gateBucket := 0, -1
	for pi := 0; pi < payloads; pi++ {
		sector := p.WriteSector(randomPayload(p.Codec.PayloadBytes, 0xf11b+uint64(pi)))
		rng := sim.NewRNG(0x6a7e + uint64(pi))
		for ri := 0; ri < reads; ri++ {
			p.Demap.LLRsInto(p.Ch.TransmitInto(p.Mod, sector, p.symbols(), rng, sc.points[:0]), sc.llrs, sc.hard)
			for b := 0; b < p.Codec.Blocks(); b++ {
				unsat, gated, ok := code.FlipTrial(sc.hard, b*code.N)
				i := unsat / width
				for len(table) <= i {
					table = append(table, bucket{})
				}
				table[i].blocks++
				if ok {
					table[i].flipOK++
				}
				if gated && i > gateBucket {
					gateBucket = i
				}
				total++
			}
		}
	}
	if total < 4000 {
		t.Fatalf("only %d blocks sampled, want at least 4000", total)
	}
	rate := func(i int) float64 {
		if i >= len(table) || table[i].blocks == 0 {
			return 0
		}
		return float64(table[i].flipOK) / float64(table[i].blocks)
	}
	for i, b := range table {
		mark := ""
		if i == gateBucket {
			mark = "  <- flipGate"
		}
		t.Logf("unsat %2d-%2d: %4d blocks, Gallager-B settles %5.1f %%%s", i*width, i*width+width-1, b.blocks, 100*rate(i), mark)
	}
	if gateBucket < 0 || table[gateBucket].blocks < 100 {
		t.Fatalf("the gate's bucket (%d) is empty or thin: the operating point has moved away from it", gateBucket)
	}
	if r := rate(gateBucket); r < 0.50 {
		t.Errorf("Gallager-B settles %.1f %% of blocks in the gate's bucket, want at least 50 %%: the gate is too high", 100*r)
	}
	if r := rate(gateBucket + 2); r > 0.35 {
		t.Errorf("Gallager-B settles %.1f %% of blocks two buckets above the gate, want at most 35 %%: the gate is too low", 100*r)
	}
}
