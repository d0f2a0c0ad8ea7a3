package nc

import (
	"bytes"
	"sync"
	"testing"

	"silica/internal/sim"
)

func randUnits(r *sim.RNG, n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		u := make([]byte, size)
		for j := range u {
			u[j] = byte(r.Uint64())
		}
		out[i] = u
	}
	return out
}

func TestEncodeRedundancyShape(t *testing.T) {
	g := MustNewGroup(10, 4, Cauchy, 1)
	info := randUnits(sim.NewRNG(1), 10, 64)
	red, err := g.EncodeRedundancy(info)
	if err != nil {
		t.Fatal(err)
	}
	if len(red) != 4 {
		t.Fatalf("got %d redundancy units, want 4", len(red))
	}
	for _, u := range red {
		if len(u) != 64 {
			t.Fatalf("redundancy unit size %d, want 64", len(u))
		}
	}
}

func TestEncodeRejectsBadInput(t *testing.T) {
	g := MustNewGroup(4, 2, Cauchy, 1)
	if _, err := g.EncodeRedundancy(randUnits(sim.NewRNG(1), 3, 8)); err == nil {
		t.Fatal("wrong unit count accepted")
	}
	units := randUnits(sim.NewRNG(1), 4, 8)
	units[2] = units[2][:5]
	if _, err := g.EncodeRedundancy(units); err == nil {
		t.Fatal("ragged unit sizes accepted")
	}
}

func TestNewGroupValidation(t *testing.T) {
	if _, err := NewGroup(0, 2, Cauchy, 1); err == nil {
		t.Fatal("I=0 accepted")
	}
	if _, err := NewGroup(4, -1, Cauchy, 1); err == nil {
		t.Fatal("R<0 accepted")
	}
	if _, err := NewGroup(200, 100, Cauchy, 1); err == nil {
		t.Fatal("oversized Cauchy group accepted")
	}
	if _, err := NewGroup(4, 2, Scheme(1), 1); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// TestAnyIOfIPlusR is the defining MDS property (§5): "any I sectors in
// the group can be used to construct any other sector in the group".
func TestAnyIOfIPlusR(t *testing.T) {
	const i, r = 8, 3
	g := MustNewGroup(i, r, Cauchy, 7)
	rng := sim.NewRNG(7)
	info := randUnits(rng, i, 128)
	red, err := g.EncodeRedundancy(info)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([][]byte{}, info...), red...)
	// Try many random I-subsets of the I+R units.
	for trial := 0; trial < 100; trial++ {
		perm := rng.Perm(i + r)
		avail := make(map[int][]byte, i)
		for _, idx := range perm[:i] {
			avail[idx] = all[idx]
		}
		rec, err := g.ReconstructAll(avail)
		if err != nil {
			t.Fatalf("trial %d: %v (subset %v)", trial, err, perm[:i])
		}
		for j := range info {
			if !bytes.Equal(rec[j], info[j]) {
				t.Fatalf("trial %d: unit %d mismatch", trial, j)
			}
		}
	}
}

func TestWorstCaseErasurePattern(t *testing.T) {
	// Lose exactly R information units; all redundancy plus the rest
	// must recover them.
	const i, r = 16, 3
	g := MustNewGroup(i, r, Cauchy, 11)
	rng := sim.NewRNG(11)
	info := randUnits(rng, i, 256)
	red, _ := g.EncodeRedundancy(info)
	avail := make(map[int][]byte)
	for j := 3; j < i; j++ { // info units 0,1,2 lost
		avail[j] = info[j]
	}
	for j, u := range red {
		avail[i+j] = u
	}
	rec, err := g.Reconstruct(avail, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		if !bytes.Equal(rec[j], info[j]) {
			t.Fatalf("unit %d mismatch", j)
		}
	}
}

func TestReconstructInsufficientUnits(t *testing.T) {
	g := MustNewGroup(6, 2, Cauchy, 3)
	info := randUnits(sim.NewRNG(3), 6, 32)
	avail := map[int][]byte{0: info[0], 1: info[1], 2: info[2], 3: info[3], 4: info[4]}
	if _, err := g.Reconstruct(avail, []int{5}); err == nil {
		t.Fatal("reconstruction with I-1 units should fail")
	}
}

func TestReconstructWantValidation(t *testing.T) {
	g := MustNewGroup(4, 2, Cauchy, 3)
	if _, err := g.Reconstruct(map[int][]byte{}, []int{4}); err == nil {
		t.Fatal("want of a redundancy index should be rejected")
	}
	if _, err := g.Reconstruct(map[int][]byte{}, []int{-1}); err == nil {
		t.Fatal("negative want should be rejected")
	}
}

func TestReconstructBadIndex(t *testing.T) {
	g := MustNewGroup(2, 1, Cauchy, 3)
	avail := map[int][]byte{0: {1}, 5: {2}}
	if _, err := g.Reconstruct(avail, []int{1}); err == nil {
		t.Fatal("out-of-range available index should be rejected")
	}
}

func TestReconstructPassThrough(t *testing.T) {
	// Wanting units that are already available must not require I units.
	g := MustNewGroup(4, 2, Cauchy, 3)
	u := []byte{9, 9, 9}
	rec, err := g.Reconstruct(map[int][]byte{2: u}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec[2], u) {
		t.Fatal("available unit not passed through")
	}
}

func TestPaperScaleWithinTrackGroup(t *testing.T) {
	// Full paper-scale within-track group: 100+8 with 1 KiB sector
	// stand-ins (real sectors are ~100 KiB; size doesn't change the
	// algebra).
	g := MustNewGroup(100, 8, Cauchy, 17)
	rng := sim.NewRNG(17)
	info := randUnits(rng, 100, 1024)
	red, err := g.EncodeRedundancy(info)
	if err != nil {
		t.Fatal(err)
	}
	// Kill 8 random information sectors.
	lost := rng.Perm(100)[:8]
	isLost := map[int]bool{}
	for _, l := range lost {
		isLost[l] = true
	}
	avail := make(map[int][]byte)
	for j := 0; j < 100; j++ {
		if !isLost[j] {
			avail[j] = info[j]
		}
	}
	for j, u := range red {
		avail[100+j] = u
	}
	rec, err := g.Reconstruct(avail, lost)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lost {
		if !bytes.Equal(rec[l], info[l]) {
			t.Fatalf("sector %d not recovered", l)
		}
	}
}

func TestHierarchyDefaults(t *testing.T) {
	h, err := NewHierarchy(Cauchy, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h.WithinTrack.I != 100 || h.WithinTrack.R != 8 {
		t.Fatalf("within-track = %d+%d", h.WithinTrack.I, h.WithinTrack.R)
	}
	if h.PlatterSet.I != 16 || h.PlatterSet.R != 3 {
		t.Fatalf("platter-set = %d+%d", h.PlatterSet.I, h.PlatterSet.R)
	}
	// §6: ~8% within-track + ~2% large-group ≈ 10% in-platter overhead.
	ov := h.TotalInPlatterOverhead()
	if ov < 0.08 || ov > 0.12 {
		t.Fatalf("in-platter overhead = %v, want ~0.10", ov)
	}
}

func TestTrackDecodeFailureProb(t *testing.T) {
	// §6: with ~8% redundancy and sector failure probability 1e-3 the
	// track decode failure probability is astronomically small.
	p := TrackDecodeFailureProb(DefaultWithinTrack, 1e-3)
	if p > 1e-14 || p <= 0 {
		t.Fatalf("track failure probability = %v", p)
	}
	// It must degrade gracefully as sector failures rise.
	p2 := TrackDecodeFailureProb(DefaultWithinTrack, 1e-2)
	if p2 <= p {
		t.Fatal("higher sector failure rate should raise track failure probability")
	}
}

func TestGroupLossFallsWithGroupSize(t *testing.T) {
	// §5: "the probability of being unable to recover a group falls
	// rapidly with the size of the group (I+R)" at fixed overhead.
	small := GroupLossProb(LevelParams{I: 10, R: 1}, 0.01)
	large := GroupLossProb(LevelParams{I: 100, R: 10}, 0.01)
	if large >= small {
		t.Fatalf("large group (%v) should beat small group (%v) at equal overhead", large, small)
	}
}

// setUnits encodes one random track per member of the default 16+3
// platter set: the units a cross-platter recovery reads.
func setUnits(t *testing.T, h *Hierarchy) [][]byte {
	t.Helper()
	info := randUnits(sim.NewRNG(42), h.PlatterSet.I, 64)
	red, err := h.PlatterSet.EncodeRedundancy(info)
	if err != nil {
		t.Fatal(err)
	}
	return append(info, red...)
}

// TestPlanRecovery: serving a track of an unavailable set member reads
// the matching track of the first I available members, information
// members first, which is the set its reconstruction inverts: 16 reads
// for one, the paper's 16x read amplification.
func TestPlanRecovery(t *testing.T) {
	h, err := NewHierarchy(Cauchy, 1)
	if err != nil {
		t.Fatal(err)
	}
	all := setUnits(t, h)
	avail := map[int][]byte{}
	for m := 0; m < h.PlatterSet.Size() && len(avail) < h.PlatterSet.I; m++ {
		if m != 3 {
			avail[m] = all[m]
		}
	}
	if len(avail) != 16 || avail[16] == nil || avail[17] != nil {
		t.Fatalf("recovery reads %d members, want 16: 0-2 and 4-16", len(avail))
	}
	dst := make([]byte, len(all[3]))
	if err := h.PlatterSet.ReconstructInto(dst, avail, 3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, all[3]) {
		t.Fatal("recovered track differs from member 3's")
	}
}

func TestPlanRecoveryTooManyFailures(t *testing.T) {
	h, _ := NewHierarchy(Cauchy, 1)
	all := setUnits(t, h)
	avail := map[int][]byte{}
	for m := 4; m < h.PlatterSet.Size(); m++ {
		avail[m] = all[m]
	}
	if err := h.PlatterSet.ReconstructInto(make([]byte, len(all[0])), avail, 0); err == nil {
		t.Fatal("4 failures in a 16+3 set should be unrecoverable")
	}
}

func TestSchemeString(t *testing.T) {
	if Cauchy.String() != "cauchy" {
		t.Fatal("scheme names wrong")
	}
	if Scheme(9).String() == "" {
		t.Fatal("unknown scheme should still format")
	}
}

func BenchmarkEncodeWithinTrack(b *testing.B) {
	// Encoding 8 redundancy sectors over 100 x 4 KiB information
	// sectors (scaled-down sector size).
	g := MustNewGroup(100, 8, Cauchy, 1)
	info := randUnits(sim.NewRNG(1), 100, 4096)
	b.SetBytes(100 * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.EncodeRedundancy(info); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecoverOneSector(b *testing.B) {
	g := MustNewGroup(100, 8, Cauchy, 1)
	info := randUnits(sim.NewRNG(1), 100, 4096)
	red, _ := g.EncodeRedundancy(info)
	avail := make(map[int][]byte)
	for j := 1; j < 100; j++ {
		avail[j] = info[j]
	}
	avail[100] = red[0]
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Reconstruct(avail, []int{0}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReconstructIntoMatchesReconstruct: the dst form writes exactly
// what Reconstruct returns, over dst filled with garbage, for every
// erasure pattern (up to R lost units) of the service's within-track,
// large-group and set shapes and of the paper's 16+3 set, under both
// schemes and twice over, so the second pass decodes from cached
// inverses. The paper's 100-unit levels, too wide to cache or to
// enumerate, take seeded patterns.
func TestReconstructIntoMatchesReconstruct(t *testing.T) {
	const size = 48
	check := func(t *testing.T, g *Group, all [][]byte, lost []bool, wants []int) {
		avail := map[int][]byte{}
		for idx, u := range all {
			if !lost[idx] {
				avail[idx] = u
			}
		}
		dst := make([]byte, size)
		for _, w := range wants {
			want, werr := g.Reconstruct(avail, []int{w})
			for i := range dst {
				dst[i] = byte(0xa5 + i)
			}
			err := g.ReconstructInto(dst, avail, w)
			if (err != nil) != (werr != nil) {
				t.Fatalf("lost %v, unit %d: ReconstructInto err = %v, Reconstruct err = %v", lost, w, err, werr)
			}
			if err == nil && !bytes.Equal(dst, want[w]) {
				t.Fatalf("lost %v, unit %d: ReconstructInto differs from Reconstruct", lost, w)
			}
			if err == nil && !bytes.Equal(dst, all[w]) {
				t.Fatalf("lost %v, unit %d: wrong bytes", lost, w)
			}
		}
	}
	encode := func(t *testing.T, g *Group, seed uint64) [][]byte {
		info := randUnits(sim.NewRNG(seed), g.I, size)
		red, err := g.EncodeRedundancy(info)
		if err != nil {
			t.Fatal(err)
		}
		return append(info, red...)
	}
	for _, shape := range []LevelParams{
		{Name: "within-track 8+2", I: 8, R: 2},
		{Name: "large-group 8+1", I: 8, R: 1},
		{Name: "set 4+2", I: 4, R: 2},
		DefaultPlatterSet,
	} {
		t.Run(shape.Name+"/"+Cauchy.String(), func(t *testing.T) {
			g := MustNewGroup(shape.I, shape.R, Cauchy, 5)
			all := encode(t, g, 5)
			wants := make([]int, g.I)
			for i := range wants {
				wants[i] = i
			}
			n := g.Size()
			for pass := 0; pass < 2; pass++ {
				for mask := 0; mask < 1<<n; mask++ {
					lost := make([]bool, n)
					count := 0
					for idx := range lost {
						if lost[idx] = mask&(1<<idx) != 0; lost[idx] {
							count++
						}
					}
					if count <= g.R {
						check(t, g, all, lost, wants)
					}
				}
			}
		})
	}
	for _, shape := range []LevelParams{DefaultWithinTrack, DefaultLargeGroup} {
		t.Run(shape.Name, func(t *testing.T) {
			g := MustNewGroup(shape.I, shape.R, Cauchy, 5)
			all := encode(t, g, 6)
			rng := sim.NewRNG(6)
			for trial := 0; trial < 20; trial++ {
				lost := make([]bool, g.Size())
				var wants []int
				for _, idx := range rng.Perm(g.Size())[:1+rng.Intn(g.R)] {
					lost[idx] = true
					if idx < g.I {
						wants = append(wants, idx)
					}
				}
				check(t, g, all, lost, append(wants, rng.Intn(g.I)))
			}
		})
	}
}

// TestReconstructIntoAllocatesOncePerPattern: a set-sized group decodes
// a pattern it has met before without allocating.
func TestReconstructIntoAllocatesOncePerPattern(t *testing.T) {
	g := MustNewGroup(16, 3, Cauchy, 7)
	info := randUnits(sim.NewRNG(7), 16, 64)
	red, _ := g.EncodeRedundancy(info)
	avail := map[int][]byte{16: red[0]}
	for j := 1; j < 16; j++ {
		avail[j] = info[j]
	}
	dst := make([]byte, 64)
	if allocs := testing.AllocsPerRun(10, func() {
		if err := g.ReconstructInto(dst, avail, 0); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ReconstructInto of a cached pattern: %v allocations, want 0", allocs)
	}
	if !bytes.Equal(dst, info[0]) {
		t.Fatal("wrong bytes")
	}
}

// TestReconstructIntoConcurrent: goroutines share one group's inverse
// cache, each decoding its own erasure patterns into its own buffer.
// Run under -race.
func TestReconstructIntoConcurrent(t *testing.T) {
	g := MustNewGroup(4, 2, Cauchy, 9)
	info := randUnits(sim.NewRNG(9), 4, 32)
	red, _ := g.EncodeRedundancy(info)
	all := append(info, red...)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]byte, 32)
			for round := 0; round < 50; round++ {
				lost, other := (w+round)%4, 4+round%2 // one info and one redundancy unit
				avail := map[int][]byte{}
				for idx, u := range all {
					if idx != lost && idx != other {
						avail[idx] = u
					}
				}
				if err := g.ReconstructInto(dst, avail, lost); err != nil || !bytes.Equal(dst, info[lost]) {
					t.Errorf("worker %d round %d: err=%v, equal=%v", w, round, err, bytes.Equal(dst, info[lost]))
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestEncodeRedundancyIntoMatchesEncodeRedundancy: the dst form writes
// the allocating form's bytes over whatever dst held, allocates
// nothing, and refuses a dst of the wrong shape.
func TestEncodeRedundancyIntoMatchesEncodeRedundancy(t *testing.T) {
	g := MustNewGroup(8, 3, Cauchy, 11)
	info := randUnits(sim.NewRNG(11), 8, 100)
	want, err := g.EncodeRedundancy(info)
	if err != nil {
		t.Fatal(err)
	}
	dst := randUnits(sim.NewRNG(12), 3, 100) // stale contents must not leak
	if allocs := testing.AllocsPerRun(5, func() {
		if err := g.EncodeRedundancyInto(dst, info); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("EncodeRedundancyInto allocated %v times, want 0", allocs)
	}
	for r := range want {
		if !bytes.Equal(dst[r], want[r]) {
			t.Fatalf("redundancy unit %d differs from EncodeRedundancy", r)
		}
	}
	// One row at a time, each into a buffer of its own, gives the same
	// units.
	row := randUnits(sim.NewRNG(13), 1, 100)[0]
	for r := range want {
		if allocs := testing.AllocsPerRun(5, func() {
			if err := g.EncodeRowInto(row, r, info); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 || !bytes.Equal(row, want[r]) {
			t.Fatalf("EncodeRowInto of unit %d: %v allocations, equal to EncodeRedundancy's %v; want 0 and true",
				r, allocs, bytes.Equal(row, want[r]))
		}
	}
	for _, r := range []int{-1, 3} {
		if err := g.EncodeRowInto(row, r, info); err == nil {
			t.Errorf("EncodeRowInto of unit %d accepted", r)
		}
	}
	g = MustNewGroup(4, 2, Cauchy, 1)
	info = randUnits(sim.NewRNG(1), 4, 8)
	for name, dst := range map[string][][]byte{
		"too few buffers": randUnits(sim.NewRNG(2), 1, 8),
		"short buffer":    {make([]byte, 8), make([]byte, 7)},
	} {
		if err := g.EncodeRedundancyInto(dst, info); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
