package controller

import (
	"testing"

	"silica/internal/geometry"
	"silica/internal/media"
)

func req(id int, p media.PlatterID, arrival float64, bytes int64) *Request {
	return &Request{ID: RequestID(id), Platter: p, Arrival: arrival, Bytes: bytes}
}

func TestSchedulerEarliestFirst(t *testing.T) {
	s := NewScheduler(1)
	s.Add(req(1, 10, 5.0, 100), 0)
	s.Add(req(2, 20, 3.0, 100), 0)
	s.Add(req(3, 30, 4.0, 100), 0)
	p, ok := s.SelectPlatter(0, nil)
	if !ok || p != 20 {
		t.Fatalf("selected %v, want 20 (earliest arrival)", p)
	}
}

func TestSchedulerGroupsRequestsPerPlatter(t *testing.T) {
	s := NewScheduler(1)
	s.Add(req(1, 10, 1.0, 100), 0)
	s.Add(req(2, 10, 2.0, 50), 0)
	s.Add(req(3, 20, 1.5, 10), 0)
	if s.Pending() != 3 {
		t.Fatalf("pending = %d", s.Pending())
	}
	got := s.Take(10)
	if len(got) != 2 {
		t.Fatalf("take returned %d requests, want both for the platter", len(got))
	}
	if s.Pending() != 1 {
		t.Fatalf("pending after take = %d", s.Pending())
	}
	// Taken platter no longer selectable.
	p, ok := s.SelectPlatter(0, nil)
	if !ok || p != 20 {
		t.Fatalf("selected %v after take", p)
	}
	if s.Take(10) != nil {
		t.Fatal("double take should return nil")
	}
}

// TestWorkConservingSelection reproduces §4.1's example: if the
// earliest platter is obscured, the next accessible one is chosen
// rather than waiting.
func TestWorkConservingSelection(t *testing.T) {
	s := NewScheduler(1)
	s.Add(req(1, 10, 1.0, 100), 0) // earliest, but blocked
	s.Add(req(2, 20, 2.0, 100), 0)
	blocked := map[media.PlatterID]bool{10: true}
	p, ok := s.SelectPlatter(0, func(id media.PlatterID) bool { return !blocked[id] })
	if !ok || p != 20 {
		t.Fatalf("selected %v, want 20", p)
	}
	// Once unblocked, the earlier platter is guaranteed to be served.
	blocked[10] = false
	p, ok = s.SelectPlatter(0, func(id media.PlatterID) bool { return !blocked[id] })
	if !ok || p != 10 {
		t.Fatalf("selected %v, want 10 after unblocking", p)
	}
}

func TestSelectPlatterAllBlocked(t *testing.T) {
	s := NewScheduler(1)
	s.Add(req(1, 10, 1.0, 100), 0)
	if _, ok := s.SelectPlatter(0, func(media.PlatterID) bool { return false }); ok {
		t.Fatal("selection with everything blocked should fail")
	}
	// Entry must survive for later selection.
	if _, ok := s.SelectPlatter(0, nil); !ok {
		t.Fatal("entry lost after blocked selection")
	}
}

func TestSchedulerGroupAccounting(t *testing.T) {
	s := NewScheduler(3)
	s.Add(req(1, 10, 1, 100), 0)
	s.Add(req(2, 20, 1, 200), 1)
	s.Add(req(3, 21, 2, 50), 1)
	if s.GroupBytes(0) != 100 || s.GroupBytes(1) != 250 || s.GroupBytes(2) != 0 {
		t.Fatalf("group bytes = %d/%d/%d", s.GroupBytes(0), s.GroupBytes(1), s.GroupBytes(2))
	}
	if n := groupPlatters(s, 1); n != 2 {
		t.Fatalf("group 1 platters = %d", n)
	}
	s.Take(20)
	if s.GroupBytes(1) != 50 {
		t.Fatalf("group 1 bytes after take = %d", s.GroupBytes(1))
	}
	// Selection in one group must not see another group's platters.
	if p, ok := s.SelectPlatter(0, nil); !ok || p != 10 {
		t.Fatalf("group 0 selected %v", p)
	}
	if p, ok := s.SelectPlatter(1, nil); !ok || p != 21 {
		t.Fatalf("group 1 selected %v", p)
	}
}

// TestSchedulerPeek: queued requests wait, unconsumed, in their
// platter's entry until Take hands them all out.
func TestSchedulerPeek(t *testing.T) {
	s := NewScheduler(1)
	s.Add(req(1, 10, 1, 100), 0)
	if e := s.byPlatter[10]; e == nil || len(e.requests) != 1 {
		t.Fatalf("platter 10 entry = %+v", e)
	}
	if s.Pending() != 1 {
		t.Fatal("queueing must not consume")
	}
	if s.byPlatter[99] != nil {
		t.Fatal("unknown platter has an entry")
	}
	if got := s.Take(10); len(got) != 1 || s.byPlatter[10] != nil {
		t.Fatalf("take = %d requests, entry left %v", len(got), s.byPlatter[10])
	}
}

// groupPlatters counts the distinct platters queued in a group.
func groupPlatters(s *Scheduler, group int) int {
	n := 0
	for _, e := range s.groups[group] {
		if !e.dead {
			n++
		}
	}
	return n
}

func TestSchedulerRequeueAfterTake(t *testing.T) {
	// A platter taken and later re-requested must re-enter the queue.
	s := NewScheduler(1)
	s.Add(req(1, 10, 1, 100), 0)
	s.Take(10)
	s.Add(req(2, 10, 5, 60), 0)
	p, ok := s.SelectPlatter(0, nil)
	if !ok || p != 10 {
		t.Fatalf("requeued platter not selectable: %v %v", p, ok)
	}
	if got := s.Take(10); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("take after requeue = %v", got)
	}
}

func TestReservationNoConflictNoDelay(t *testing.T) {
	rt := NewReservationTable(1.5)
	path := []TimedSeg{
		{Seg: Segment{Rail: 0, Rack: 1}, Duration: 2},
		{Seg: Segment{Rail: 0, Rack: 2}, Duration: 2},
	}
	delay, conflicts, end := rt.Reserve(1, 0, path)
	if delay != 0 || conflicts != 0 || end != 4 {
		t.Fatalf("delay=%v conflicts=%d end=%v", delay, conflicts, end)
	}
	// A different rail sharing the same racks is conflict-free.
	path2 := []TimedSeg{{Seg: Segment{Rail: 5, Rack: 1}, Duration: 2}}
	delay, conflicts, _ = rt.Reserve(2, 0, path2)
	if delay != 0 || conflicts != 0 {
		t.Fatalf("cross-rail conflict: delay=%v conflicts=%d", delay, conflicts)
	}
}

func TestReservationConflictForcesWait(t *testing.T) {
	rt := NewReservationTable(1.5)
	seg := Segment{Rail: 3, Rack: 2}
	rt.Reserve(1, 0, []TimedSeg{{Seg: seg, Duration: 10}})
	delay, conflicts, end := rt.Reserve(2, 5, []TimedSeg{{Seg: seg, Duration: 2}})
	if conflicts != 1 {
		t.Fatalf("conflicts = %d", conflicts)
	}
	// Must wait until t=10 plus the restart penalty.
	if delay < 5+1.5-1e-9 {
		t.Fatalf("delay = %v, want >= 6.5", delay)
	}
	if end < 12.5-1e-9 {
		t.Fatalf("end = %v", end)
	}
}

func TestReservationDisjointTimesNoConflict(t *testing.T) {
	rt := NewReservationTable(1.5)
	seg := Segment{Rail: 3, Rack: 2}
	rt.Reserve(1, 0, []TimedSeg{{Seg: seg, Duration: 2}})
	delay, conflicts, _ := rt.Reserve(2, 10, []TimedSeg{{Seg: seg, Duration: 2}})
	if delay != 0 || conflicts != 0 {
		t.Fatalf("phantom conflict: delay=%v conflicts=%d", delay, conflicts)
	}
}

// TestReservationTableStaysBounded: shuttles that keep crossing the
// same segments at rising start times, as the simulator's clock drives
// them, leave only the reservations still live in the table. A move
// starts every 5 s on a 7 s path, so two overlap; the table's size does
// not grow with the number of moves, and a twin that never ends a run
// does not leak.
func TestReservationTableStaysBounded(t *testing.T) {
	live := func(rt *ReservationTable) int {
		n := 0
		for _, ivs := range rt.bySeg {
			n += len(ivs)
		}
		return n
	}
	path := []TimedSeg{
		{Seg: Segment{Rail: 1, Rack: 1}, Duration: 2},
		{Seg: Segment{Rail: 1, Rack: 2}, Duration: 2},
		{Seg: Segment{Rail: 2, Rack: 2}, Duration: 3},
	}
	peak := map[int]int{}
	for _, moves := range []int{100, 10000} {
		rt := NewReservationTable(1.5)
		for i := 0; i < moves; i++ {
			rt.Reserve(i%4, 5*float64(i), path)
			peak[moves] = max(peak[moves], live(rt))
		}
	}
	t.Logf("live intervals: at most %d after 100 moves, %d after 10000", peak[100], peak[10000])
	if peak[10000] != peak[100] || peak[100] > 2*len(path) {
		t.Fatalf("the table held up to %d intervals over 100 moves and %d over 10000; want the same small bound",
			peak[100], peak[10000])
	}
}

func TestPathSegments(t *testing.T) {
	rackOf := func(x float64) int { return int(x / geometry.RackWidth) }
	horiz := func(d float64) float64 { return d } // 1 m/s for easy math
	from := geometry.Pos{X: 0.6, Rail: 2}
	to := geometry.Pos{X: 3.0, Rail: 4}
	path := PathSegments(from, to, rackOf, horiz, 3.0)
	// Horizontal across racks 0,1,2 on the origin rail, then 2 crabs at
	// the destination rack.
	if len(path) != 5 {
		t.Fatalf("path = %d segments, want 5: %+v", len(path), path)
	}
	var horizTotal float64
	for _, s := range path[:3] {
		if s.Seg.Rail != 2 {
			t.Fatalf("horizontal segment on rail %d, want origin rail 2", s.Seg.Rail)
		}
		horizTotal += s.Duration
	}
	if diff := horizTotal - 2.4; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("horizontal time = %v, want 2.4", horizTotal)
	}
	if path[3].Seg != (Segment{Rail: 3, Rack: 2}) || path[4].Seg != (Segment{Rail: 4, Rack: 2}) {
		t.Fatalf("crab segments wrong: %+v", path[3:])
	}
}

func TestPathSegmentsNoMove(t *testing.T) {
	rackOf := func(x float64) int { return int(x / geometry.RackWidth) }
	p := geometry.Pos{X: 1, Rail: 1}
	if path := PathSegments(p, p, rackOf, func(d float64) float64 { return d }, 3); len(path) != 0 {
		t.Fatalf("stationary path = %d segments", len(path))
	}
}

func TestPathSegmentsLeftward(t *testing.T) {
	rackOf := func(x float64) int { return int(x / geometry.RackWidth) }
	from := geometry.Pos{X: 3.0, Rail: 0}
	to := geometry.Pos{X: 0.6, Rail: 0}
	path := PathSegments(from, to, rackOf, func(d float64) float64 { return d }, 3)
	if len(path) != 3 {
		t.Fatalf("path = %+v", path)
	}
	if path[0].Seg.Rack != 2 || path[2].Seg.Rack != 0 {
		t.Fatalf("leftward rack order wrong: %+v", path)
	}
}

func TestStealerTrigger(t *testing.T) {
	st := &Stealer{ThresholdBytes: 100}
	loads := []int64{500, 10, 50}
	victim, ok := st.PickVictim(loads, 1)
	if !ok || victim != 0 {
		t.Fatalf("victim = %d, ok=%v", victim, ok)
	}
	// Below threshold: no steal.
	loads = []int64{60, 10, 50}
	if _, ok := st.PickVictim(loads, 1); ok {
		t.Fatal("steal triggered below threshold")
	}
	// Self is the most loaded: no steal.
	loads = []int64{500, 10, 50}
	if _, ok := st.PickVictim(loads, 0); ok {
		t.Fatal("most-loaded partition stole from lighter ones")
	}
}
