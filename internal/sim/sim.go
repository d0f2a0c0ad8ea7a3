// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is the substrate for the Silica "digital twin" (SOSP'23, §7):
// a binary-heap event queue keyed by virtual time, a simulation clock, and
// helpers for building processes out of scheduled callbacks. All
// stochastic behaviour flows through explicitly seeded RNGs (see rng.go),
// so a simulation run is a pure function of its configuration and seed.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is virtual time in seconds since the start of the simulation.
type Time = float64

// event is a scheduled callback. Events with equal times fire in the
// order they were scheduled (FIFO tie-break by sequence number), which
// keeps runs deterministic.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Simulator owns the event queue and the virtual clock.
type Simulator struct {
	now    Time
	seq    uint64
	events eventHeap
	fired  uint64
}

// New returns a simulator with the clock at time zero.
func New() *Simulator {
	return &Simulator{}
}

// Now reports the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Fired reports how many events have executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Schedule queues fn to run after delay seconds of virtual time.
// A negative delay panics: the past is immutable.
func (s *Simulator) Schedule(delay Time, fn func()) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: schedule with invalid delay %v at t=%v", delay, s.now))
	}
	s.At(s.now+delay, fn)
}

// At queues fn to run at absolute virtual time t (t >= Now).
func (s *Simulator) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: schedule in the past: %v < %v", t, s.now))
	}
	heap.Push(&s.events, &event{at: t, seq: s.seq, fn: fn})
	s.seq++
}

// NextAt reports the virtual time of the earliest pending event. ok is
// false when the queue is empty.
func (s *Simulator) NextAt() (Time, bool) {
	if len(s.events) == 0 {
		return 0, false
	}
	return s.events[0].at, true
}

// Step executes the single earliest pending event. It reports false when
// the queue is empty.
func (s *Simulator) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := heap.Pop(&s.events).(*event)
	s.now = e.at
	s.fired++
	e.fn()
	return true
}

// Run executes events until the queue drains.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with time <= deadline, then advances the clock
// to deadline. Events scheduled past the deadline remain queued.
func (s *Simulator) RunUntil(deadline Time) {
	for len(s.events) > 0 && s.events[0].at <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}
