package controller

import (
	"testing"

	"silica/internal/media"
	"silica/internal/sim"
)

// TestSchedulerRandomOpsInvariants drives the scheduler with a random
// operation sequence and checks the global invariants after every
// step: pending count and group bytes always match ground truth, and
// selection always returns the earliest accessible platter.
func TestSchedulerRandomOpsInvariants(t *testing.T) {
	rng := sim.NewRNG(77)
	const groups = 4
	s := NewScheduler(groups)

	type shadowEntry struct {
		earliest float64
		bytes    int64
		count    int
	}
	shadow := make([]map[media.PlatterID]*shadowEntry, groups)
	for g := range shadow {
		shadow[g] = map[media.PlatterID]*shadowEntry{}
	}
	clock := 0.0
	var nextID RequestID

	check := func() {
		totalPending := 0
		for g := 0; g < groups; g++ {
			var bytes int64
			platters := 0
			var earliest float64 = -1
			var earliestP media.PlatterID
			for p, e := range shadow[g] {
				bytes += e.bytes
				platters++
				totalPending += e.count
				if earliest < 0 || e.earliest < earliest ||
					(e.earliest == earliest && p < earliestP) {
					earliest = e.earliest
					earliestP = p
				}
			}
			if got := s.GroupBytes(g); got != bytes {
				t.Fatalf("group %d bytes = %d, want %d", g, got, bytes)
			}
			if got := groupPlatters(s, g); got != platters {
				t.Fatalf("group %d platters = %d, want %d", g, got, platters)
			}
			p, ok := s.SelectPlatter(g, nil)
			if ok != (platters > 0) {
				t.Fatalf("group %d selectability mismatch", g)
			}
			if ok && p != earliestP {
				t.Fatalf("group %d selected %v, want earliest %v", g, p, earliestP)
			}
		}
		if got := s.Pending(); got != totalPending {
			t.Fatalf("pending = %d, want %d", got, totalPending)
		}
	}

	for step := 0; step < 3000; step++ {
		switch rng.Intn(3) {
		case 0, 1: // add
			clock += rng.Float64()
			g := rng.Intn(groups)
			p := media.PlatterID(rng.Intn(30))
			nextID++
			bytes := int64(1 + rng.Intn(1000))
			s.Add(&Request{ID: nextID, Platter: p, Bytes: bytes, Arrival: clock}, g)
			// Shadow: the entry joins the group of its FIRST add while
			// queued (the scheduler pins a queued platter's group).
			owner := -1
			for gg := 0; gg < groups; gg++ {
				if _, ok := shadow[gg][p]; ok {
					owner = gg
					break
				}
			}
			if owner < 0 {
				shadow[g][p] = &shadowEntry{earliest: clock, bytes: bytes, count: 1}
			} else {
				e := shadow[owner][p]
				e.bytes += bytes
				e.count++
			}
		case 2: // take a random queued platter
			g := rng.Intn(groups)
			var victim media.PlatterID = -1
			for p := range shadow[g] {
				victim = p
				break
			}
			if victim < 0 {
				continue
			}
			got := s.Take(victim)
			if len(got) != shadow[g][victim].count {
				t.Fatalf("take returned %d, want %d", len(got), shadow[g][victim].count)
			}
			delete(shadow[g], victim)
		}
		if step%50 == 0 {
			check()
		}
	}
	check()
}

// TestReservationNoOverlappingCommitments: after arbitrary Reserve
// calls, no two different shuttles hold overlapping intervals on the
// same segment — the safety property of the traffic manager.
func TestReservationNoOverlappingCommitments(t *testing.T) {
	rng := sim.NewRNG(79)
	rt := NewReservationTable(1.5)
	for i := 0; i < 500; i++ {
		shuttle := rng.Intn(8)
		start := rng.Float64() * 100
		var path []TimedSeg
		for j := 0; j < 1+rng.Intn(4); j++ {
			path = append(path, TimedSeg{
				Seg:      Segment{Rail: rng.Intn(3), Rack: rng.Intn(4)},
				Duration: 0.5 + rng.Float64()*2,
			})
		}
		rt.Reserve(shuttle, start, path)
	}
	for seg, ivs := range rt.bySeg {
		for i := range ivs {
			for j := i + 1; j < len(ivs); j++ {
				a, b := ivs[i], ivs[j]
				if a.shuttle == b.shuttle {
					continue
				}
				if a.from < b.to && b.from < a.to {
					t.Fatalf("segment %+v: overlapping commitments %+v and %+v", seg, a, b)
				}
			}
		}
	}
}
