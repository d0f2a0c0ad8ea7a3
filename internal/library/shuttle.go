package library

import (
	"silica/internal/controller"
	"silica/internal/geometry"
	"silica/internal/media"
)

// Shuttle is a free-roaming, battery-powered platter carrier (§4). It
// travels horizontally along rails, crabs between rail positions, and
// uses its picker to move one platter at a time. Under the Silica
// policy it stays inside its logical partition except when work
// stealing; under SP it roams the whole panel.
type Shuttle struct {
	lib  *Library
	id   int
	part int // partition index
	pos  geometry.Pos
	busy bool

	// Metrics.
	energy       float64
	travels      int
	travelSecs   float64
	expectedSecs float64
	congestion   float64
	conflicts    int
	platterOps   int
	stolenOps    int
}

// travelTo moves the shuttle to dst, reserving rail segments for
// congestion detection, and invokes then on arrival. The returned
// bookkeeping feeds Figures 7(a) and 7(b).
func (s *Shuttle) travelTo(dst geometry.Pos, then func()) {
	lib := s.lib
	tr := geometry.TravelBetween(s.pos, dst)
	if tr.DistanceX < 1e-9 && tr.Crabs == 0 {
		s.pos = dst
		lib.sim.Schedule(0, then)
		return
	}
	path := controller.PathSegments(s.pos, dst, lib.layout.RackAtX,
		lib.mech.HorizontalTime, 2.976)
	delay, conflicts, _ := lib.resv.Reserve(s.id, lib.sim.Now(), path)
	sampled := lib.mech.TravelTime(tr, lib.rng)
	expected := lib.mech.ExpectedTravelTime(tr)

	s.travels++
	s.travelSecs += sampled + delay
	s.expectedSecs += expected
	s.congestion += delay
	s.conflicts += conflicts
	s.energy += lib.mech.TravelEnergy(tr, conflicts)
	lib.metrics.TravelTimes.Add(sampled + delay)
	if fn := lib.cfg.Observer.Travel; fn != nil {
		fn(sampled + delay)
	}

	s.pos = dst
	lib.sim.Schedule(sampled+delay, then)
}

// fetch executes a fetch task: travel to the platter's home slot, pick
// it, carry it to the drive, and place it (waiting if the customer
// slot is still occupied — the prefetch pipeline).
func (s *Shuttle) fetch(p media.PlatterID, reqs []*controller.Request, d *ReadDrive, stolen bool) {
	lib := s.lib
	s.busy = true
	s.platterOps++
	if stolen {
		s.stolenOps++
	}
	prefetch := d.state != driveEmpty
	if prefetch {
		lib.prefetching++
	}
	slotPos := lib.layout.SlotPos(lib.platterSlot[p])
	s.travelTo(slotPos, func() {
		lib.sim.Schedule(lib.mech.Pick.Sample(lib.rng), func() {
			s.travelTo(d.pos, func() {
				s.placeInto(p, reqs, d, prefetch)
			})
		})
	})
}

// placeInto places the carried platter once the drive slot is empty.
func (s *Shuttle) placeInto(p media.PlatterID, reqs []*controller.Request, d *ReadDrive, prefetch bool) {
	lib := s.lib
	if d.state != driveEmpty {
		d.waiters = append(d.waiters, func() { s.placeInto(p, reqs, d, prefetch) })
		return
	}
	lib.sim.Schedule(lib.mech.Place.Sample(lib.rng), func() {
		if prefetch {
			lib.prefetching--
		}
		d.inbound--
		d.place(p, reqs)
		s.busy = false
		lib.kick(s.part)
	})
}

// returnPlatter executes a return task: travel to the drive, pick the
// serviced platter, carry it to its fixed home slot, and place it.
// Platter locations are fixed in Silica (§6) — after a read the
// platter goes back where it came from.
func (s *Shuttle) returnPlatter(d *ReadDrive) {
	lib := s.lib
	s.busy = true
	s.travelTo(d.pos, func() {
		lib.sim.Schedule(lib.mech.Pick.Sample(lib.rng), func() {
			p := d.pickup()
			lib.driveFreed(d.idx) // fetches may target it
			home := lib.layout.SlotPos(lib.platterSlot[p])
			s.travelTo(home, func() {
				lib.sim.Schedule(lib.mech.Place.Sample(lib.rng), func() {
					lib.platterReturned(p)
					s.busy = false
					lib.kick(s.part)
				})
			})
		})
	})
}
