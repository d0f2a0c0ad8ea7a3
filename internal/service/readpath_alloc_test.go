package service

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"silica/internal/voxel"
)

// TestDurableGetAllocations pins the read path's allocation shape: a
// durable Get with no buffer passed in sizes its ciphertext buffer once
// from the extents, which it reads in place, and every sector is
// decoded on pooled scratch and descrambled straight into its slot, and
// the plaintext is decrypted in place, so what a Get allocates is that
// buffer and request bookkeeping (noise stream, metadata copy, AES-CTR)
// and does not grow with the number of sectors read. The channel is noiseless so that no read
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
			if _, err := s.GetInto(context.Background(), "acct", name, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs("4k"), allocs("12k")
	if st := s.Stats(); st.DurableReads == 0 || st.SectorRepairs != 0 {
		t.Fatalf("reads were not plain durable reads: %+v", st)
	}
	t.Logf("durable Get: %v allocations at 4 KiB, %v at 12 KiB", small, large)
	// 17 before the buffer was sized up front (four append regrowths and
	// a descrambled copy per sector); 9 before it was decrypted in place;
	// 6 since the extents are no longer copied and sorted per Get.
	if small > 8 {
		t.Errorf("GetCtx of a durable 4 KiB object: %v allocations, want at most 8", small)
	}
	if large != small {
		t.Errorf("allocations grow with sectors read: %v for 5 sectors, %v for 13", small, large)
	}
}

// TestDurableGetIntoAllocations gates the bytes a durable 4 KiB Get
// allocates when the caller passes its last reply's buffer back in, as
// the GET route does with its pooled buffer: readExtents decodes into
// it and the plaintext is moved down to its first byte, so what is left
// is request bookkeeping (noise stream, metadata copy, AES-CTR): ≈ 1.2
// KB. A Get allocated ≈ 6.6 KB when every call sized a ciphertext
// buffer of its own (5 × 1000 B, in a 5376 B size class) and copied and
// sorted the version's extents.
func TestDurableGetIntoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := DefaultConfig()
	cfg.Channel = voxel.CleanChannel()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := randBytes(8, 4096)
	if _, err := s.Put("acct", "4k", want); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var buf []byte
	get := func() {
		data, err := s.GetInto(ctx, "acct", "4k", buf[:0])
		if err != nil || !bytes.Equal(data, want) {
			t.Fatalf("GetInto: err=%v, byte-exact=%v", err, bytes.Equal(data, want))
		}
		if buf != nil && &data[0] != &buf[:1][0] {
			t.Fatal("GetInto did not decode into the buffer passed in")
		}
		buf = data
	}
	get() // sizes buf to the object's whole sectors
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		get()
	}
	runtime.ReadMemStats(&after)
	perGet := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if st := s.Stats(); st.DurableReads == 0 || st.SectorRepairs != 0 {
		t.Fatalf("reads were not plain durable reads: %+v", st)
	}
	t.Logf("durable 4 KiB GetInto with a reused buffer: %.0f bytes", perGet)
	// The measured value and a 10 % margin.
	if limit := 1160 * 1.10; perGet > limit {
		t.Errorf("durable GetInto of a 4 KiB object allocates %.0f bytes, want at most %.0f", perGet, limit)
	}
}

// TestDegradedGetAllocations pins set recovery's allocation shape: with
// one information member failed, every sector of a Get is gathered from
// SetInfo other members into pooled scratch and reconstructed straight
// into the Get's buffer, with the decode matrix cached per erasure
// pattern, so a degraded Get allocates what a durable one does and
// nothing per recovered sector. The channel is noiseless so that no
// unit escalates to a within-platter repair tier.
func TestDegradedGetAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := DefaultConfig()
	cfg.Channel = voxel.CleanChannel()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The two objects share the set's first platter; every other
	// member holds more sectors, so each recovered sector reads SetInfo
	// real units rather than implicit zeros.
	for name, size := range map[string]int{"4k": 4096, "12k": 3 * 4096} {
		if _, err := s.Put("acct", name, randBytes(6, size)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < cfg.SetInfo; i++ {
		if _, err := s.Put("acct", fmt.Sprintf("filler%d", i), randBytes(uint64(7+i), 6*4096)); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.SetsCompleted != 1 {
		t.Fatalf("sets completed = %d, want 1", st.SetsCompleted)
	}
	if a, b := platterOf(t, s, "acct", "4k"), platterOf(t, s, "acct", "12k"); a != b {
		t.Fatalf("objects on platters %d and %d, want one", a, b)
	} else if err := s.FailPlatter(a); err != nil {
		t.Fatal(err)
	}
	get := func(name string) {
		if _, err := s.GetInto(context.Background(), "acct", name, nil); err != nil {
			t.Fatal(err)
		}
	}
	allocs := func(name string) float64 {
		return testing.AllocsPerRun(20, func() { get(name) })
	}
	small, large := allocs("4k"), allocs("12k")
	var before, after runtime.MemStats
	const runs = 20
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		get("4k")
	}
	runtime.ReadMemStats(&after)
	perGet := float64(after.TotalAlloc-before.TotalAlloc) / runs
	st := s.Stats()
	if st.PlatterRecovers == 0 || st.SectorRepairs != 0 || st.TrackRebuilds != 0 {
		t.Fatalf("reads were not plain set recoveries: %+v", st)
	}
	t.Logf("degraded 4 KiB Get: %.0f allocations, %.0f bytes; 12 KiB: %.0f allocations", small, perGet, large)
	// ≈ 6.6 KB: the five-sector ciphertext buffer plus request
	// bookkeeping. It was ≈ 42 KB (104 allocations, 256 at 12 KiB) when
	// every gathered unit, reconstructed sector, decode matrix and the
	// plaintext had a buffer of its own.
	if perGet > 8<<10 {
		t.Errorf("degraded GetCtx of a 4 KiB object allocates %.0f bytes, want at most %d", perGet, 8<<10)
	}
	if large != small {
		t.Errorf("allocations grow with sectors recovered: %v for 5 sectors, %v for 13", small, large)
	}
}
