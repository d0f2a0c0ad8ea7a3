package service

import (
	"context"
	"testing"

	"silica/internal/voxel"
)

// TestDurableGetAllocations pins the read path's allocation shape: a
// durable Get sizes its ciphertext buffer once from the extents and
// every sector is decoded on pooled scratch and descrambled straight
// into its slot, so what a Get allocates is request bookkeeping (noise
// stream, metadata copy, extent sort, AES-CTR) and does not grow with
// the number of sectors read. The channel is noiseless so that no read
// escalates to a recovery tier, which legitimately allocates.
func TestDurableGetAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := DefaultConfig()
	cfg.Channel = voxel.CleanChannel()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, size := range map[string]int{"4k": 4096, "12k": 3 * 4096} {
		if _, err := s.Put("acct", name, randBytes(5, size)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	allocs := func(name string) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := s.GetCtx(context.Background(), "acct", name); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs("4k"), allocs("12k")
	if st := s.Stats(); st.DurableReads == 0 || st.SectorRepairs != 0 {
		t.Fatalf("reads were not plain durable reads: %+v", st)
	}
	// 17 before the buffer was sized up front: four append regrowths and
	// a descrambled copy per sector.
	if small > 9 {
		t.Errorf("GetCtx of a durable 4 KiB object: %v allocations, want at most 9", small)
	}
	if large != small {
		t.Errorf("allocations grow with sectors read: %v for 5 sectors, %v for 13", small, large)
	}
}
