package controller

import (
	"slices"

	"silica/internal/geometry"
)

// Segment is the congestion-tracking granularity: one rail position
// within one rack column. Two shuttles conflict when their motions
// occupy the same segment at overlapping times.
type Segment struct {
	Rail int
	Rack int
}

// TimedSeg is one step of a planned path: the shuttle occupies Seg for
// Duration seconds (starting when the previous step ends).
type TimedSeg struct {
	Seg      Segment
	Duration float64
}

type interval struct {
	from, to float64
	shuttle  int
}

// ReservationTable detects congestion between shuttle motions. A
// shuttle reserves the segments of its path before moving; overlap
// with another shuttle's reservation forces a wait (the congestion
// overhead of §7.5) resolved by shuttle priority: the shuttle with the
// highest identifier proceeds, the other yields (§4.1).
type ReservationTable struct {
	bySeg map[Segment][]interval
	// RestartPenalty is added once per conflict for the stop/start
	// cycle of the yielding shuttle.
	RestartPenalty float64
}

// NewReservationTable builds an empty table.
func NewReservationTable(restartPenalty float64) *ReservationTable {
	return &ReservationTable{bySeg: make(map[Segment][]interval), RestartPenalty: restartPenalty}
}

// Reserve plans a path for shuttle starting at time start. For each
// step it delays entry until the segment is free of conflicting
// reservations from shuttles that outrank this one (higher ID) or that
// reserved first (already committed to the motion). It records the
// final intervals and returns the total added delay, the number of
// conflicts, and the completion time.
//
// start is the simulator's clock, which only grows, and no step enters
// before it, so an interval that ended by start can never conflict
// again: each segment the path crosses drops those in place, and the
// table holds only reservations still live, however long the
// simulation runs.
func (t *ReservationTable) Reserve(shuttle int, start float64, path []TimedSeg) (delay float64, conflicts int, end float64) {
	now := start
	for _, step := range path {
		entry := now
		ivs := slices.DeleteFunc(t.bySeg[step.Seg], func(iv interval) bool { return iv.to <= start })
		// Wait out any overlapping interval: reservations are
		// commitments, so a later-planning shuttle yields regardless
		// of rank, but outranked shuttles also pay a restart penalty
		// (they must fully stop while the senior shuttle passes).
		for changed := true; changed; {
			changed = false
			for _, iv := range ivs {
				if iv.shuttle == shuttle {
					continue
				}
				if iv.from < entry+step.Duration && entry < iv.to {
					wait := iv.to - entry
					entry += wait + t.RestartPenalty
					conflicts++
					changed = true
				}
			}
		}
		delay += entry - now
		now = entry + step.Duration
		t.bySeg[step.Seg] = append(ivs, interval{from: entry, to: now, shuttle: shuttle})
	}
	return delay, conflicts, now
}

// PathSegments decomposes a move from one panel position to another
// into timed segments: a horizontal run across rack columns on the
// shuttle's current rail, then crabs at the destination x. Staying on
// the origin rail for the long run keeps a shuttle inside its own
// partition's band as long as possible, minimizing shared-rail
// exposure. horizTime must return the fast-phase duration for a
// distance; crabTime is the per-crab duration.
func PathSegments(from, to geometry.Pos, rackOfX func(float64) int,
	horizTime func(float64) float64, crabTime float64) []TimedSeg {

	var path []TimedSeg
	// Horizontal phase on rail = from.Rail.
	x0, x1 := from.X, to.X
	if x0 == x1 {
		return crabSegs(from.Rail, to.Rail, rackOfX(to.X), crabTime)
	}
	dir := 1.0
	if x1 < x0 {
		dir = -1
	}
	total := (x1 - x0) * dir
	fullTime := horizTime(total)
	// Split the run into rack-column segments, apportioning time by
	// distance (an approximation of the velocity profile that keeps
	// segment accounting simple).
	r0, r1 := rackOfX(x0), rackOfX(x1)
	racks := []int{}
	if r0 <= r1 {
		for r := r0; r <= r1; r++ {
			racks = append(racks, r)
		}
	} else {
		for r := r0; r >= r1; r-- {
			racks = append(racks, r)
		}
	}
	if len(racks) == 1 {
		path = append(path, TimedSeg{Seg: Segment{Rail: from.Rail, Rack: racks[0]}, Duration: fullTime})
		return append(path, crabSegs(from.Rail, to.Rail, rackOfX(to.X), crabTime)...)
	}
	// Distance within each rack column.
	dists := make([]float64, len(racks))
	var sum float64
	for i, r := range racks {
		lo := float64(r) * geometry.RackWidth
		hi := lo + geometry.RackWidth
		a, b := x0, x1
		if a > b {
			a, b = b, a
		}
		if lo < a {
			lo = a
		}
		if hi > b {
			hi = b
		}
		if hi < lo {
			hi = lo
		}
		dists[i] = hi - lo
		sum += dists[i]
	}
	if sum <= 0 {
		sum = 1
	}
	for i, r := range racks {
		path = append(path, TimedSeg{
			Seg:      Segment{Rail: from.Rail, Rack: r},
			Duration: fullTime * dists[i] / sum,
		})
	}
	return append(path, crabSegs(from.Rail, to.Rail, rackOfX(to.X), crabTime)...)
}

// crabSegs builds the vertical phase at a fixed rack column.
func crabSegs(fromRail, toRail, rack int, crabTime float64) []TimedSeg {
	var path []TimedSeg
	step := 1
	if toRail < fromRail {
		step = -1
	}
	for rail := fromRail; rail != toRail; {
		rail += step
		path = append(path, TimedSeg{Seg: Segment{Rail: rail, Rack: rack}, Duration: crabTime})
	}
	return path
}

// Stealer implements the §4.1 load-balancing trigger: work stealing
// activates when the queued-byte difference between the most and least
// loaded partitions exceeds a threshold.
type Stealer struct {
	ThresholdBytes int64
}

// PickVictim returns the partition a shuttle in partition self should
// steal from: the most loaded partition, provided it is both
// absolutely (ThresholdBytes) and relatively (2x) more loaded than
// self. The relative test keeps uniformly loaded partitions from
// thrashing each other when queues are deep everywhere; the absolute
// test keeps idle libraries quiet.
func (st *Stealer) PickVictim(loads []int64, self int) (victim int, ok bool) {
	maxI := -1
	var maxV int64
	for i, v := range loads {
		if i == self {
			continue
		}
		if v > maxV {
			maxI, maxV = i, v
		}
	}
	if maxI < 0 {
		return 0, false
	}
	if maxV-loads[self] <= st.ThresholdBytes || maxV < 2*loads[self] {
		return 0, false
	}
	return maxI, true
}
