package library

import (
	"silica/internal/geometry"
	"silica/internal/media"
)

// The write path (§4): the full-rack write drive writes several
// platters concurrently; finished platters are collected by shuttles
// from the eject bay, delivered to a read drive's verification slot,
// fully read back (§3.1), and finally stored at a free slot. The
// robotics are one-way — nothing a shuttle carries can re-enter the
// write drive (air-gap-by-design).
//
// The paper's evaluation simplifies this ("we assume a platter to be
// verified is always mounted in the drive"); with WriteEnabled the
// digital twin models the real flow, letting experiments quantify the
// shuttle and drive load that platter production adds.

// WritePathConfig sizes the optional write-path simulation.
type WritePathConfig struct {
	Enabled bool
	// Throughput is the write drive's aggregate rate, bytes/sec. The
	// prototype write drive writes multiple platters concurrently;
	// only the aggregate matters for emission times.
	Throughput float64
	// Platters to produce during the run (keeps the event set finite).
	Platters int
	// Concurrent platters in flight inside the write drive.
	Concurrent int
}

// verifySlot state per drive lives in ReadDrive (verifyPlatter et al).

// startWritePath schedules platter completions out of the write drive.
func (l *Library) startWritePath() {
	wp := l.cfg.WritePath
	if !wp.Enabled || wp.Platters <= 0 {
		return
	}
	perPlatter := float64(l.cfg.PlatterGeom.PlatterRawBytes())
	conc := wp.Concurrent
	if conc < 1 {
		conc = 1
	}
	// Each of the conc lanes emits a platter every perPlatter*conc/Throughput
	// seconds, staggered.
	interval := perPlatter * float64(conc) / wp.Throughput
	emitted := 0
	for lane := 0; lane < conc && emitted < wp.Platters; lane++ {
		offset := interval * float64(lane+1) / float64(conc)
		lane := lane
		var emit func()
		emit = func() {
			if emitted >= wp.Platters {
				return
			}
			emitted++
			id := media.PlatterID(l.cfg.Platters + l.producedPlatters)
			l.producedPlatters++
			l.ejectBay = append(l.ejectBay, id)
			l.kickAll()
			if emitted < wp.Platters {
				l.sim.Schedule(interval, emit)
			}
		}
		l.sim.Schedule(offset, emit)
		_ = lane
	}
}

// writeRackPos is the eject bay's panel position.
func (l *Library) writeRackPos() geometry.Pos {
	r := l.layout.Racks[l.layout.WriteRackIndex()]
	return geometry.Pos{X: r.Center(), Rail: 0}
}

// nextDelivery pops a platter waiting in the eject bay, or 0/false.
func (l *Library) nextDelivery() (media.PlatterID, bool) {
	if len(l.ejectBay) == 0 {
		return 0, false
	}
	p := l.ejectBay[0]
	l.ejectBay = l.ejectBay[1:]
	return p, true
}

// verifyIdleDrive returns a drive whose verification slot is free.
func (l *Library) verifyIdleDrive(part int) *ReadDrive {
	for _, di := range l.partDrives[part] {
		d := l.drives[di]
		if d.verifyPlatter == 0 && !d.verifyInbound {
			return d
		}
	}
	return nil
}

// deliver carries a freshly written platter from the eject bay to a
// read drive's verification slot.
func (s *Shuttle) deliver(p media.PlatterID, d *ReadDrive) {
	lib := s.lib
	s.busy = true
	s.platterOps++
	d.verifyInbound = true
	s.travelTo(lib.writeRackPos(), func() {
		lib.sim.Schedule(lib.mech.Pick.Sample(lib.rng), func() {
			s.travelTo(d.pos, func() {
				lib.sim.Schedule(lib.mech.Place.Sample(lib.rng), func() {
					d.verifyInbound = false
					d.acceptVerify(p)
					s.busy = false
					lib.kick(s.part)
				})
			})
		})
	})
}

// store carries a verified platter from the drive to a free storage
// slot; the platter's home is fixed from then on (§6).
func (s *Shuttle) store(d *ReadDrive) {
	lib := s.lib
	s.busy = true
	s.platterOps++
	p := d.verifiedPlatter
	d.verifiedPlatter = 0
	d.storeClaimed = false
	slot := lib.allocateSlot()
	s.travelTo(d.pos, func() {
		lib.sim.Schedule(lib.mech.Pick.Sample(lib.rng), func() {
			home := lib.layout.SlotPos(slot)
			s.travelTo(home, func() {
				lib.sim.Schedule(lib.mech.Place.Sample(lib.rng), func() {
					lib.platterSlot[p] = slot
					lib.platterPart[p] = lib.partitionOfSlot(slot)
					lib.metrics.PlattersStored++
					s.busy = false
					lib.kick(s.part)
				})
			})
		})
	})
}

// allocateSlot hands out unoccupied storage slots for newly stored
// platters, walking the slot space past the pre-populated stride.
func (l *Library) allocateSlot() geometry.SlotAddr {
	for {
		idx := l.nextFreeSlot % l.layout.NumSlots()
		l.nextFreeSlot++
		addr := l.layout.SlotAt(idx)
		if !l.slotOccupied[addr] {
			l.slotOccupied[addr] = true
			return addr
		}
	}
}

// acceptVerify mounts a platter into the verification slot and starts
// (or resumes) its full read-back.
func (d *ReadDrive) acceptVerify(p media.PlatterID) {
	d.verifyPlatter = p
	d.verifyRemaining = float64(d.lib.cfg.PlatterGeom.PlatterRawBytes())
	if d.state == driveEmpty || d.state == driveAwaitingPickup {
		d.resumeVerify(true)
	}
	d.scheduleVerifyDone()
}

// scheduleVerifyDone arms the completion event for the current
// verification platter; pauseVerify cancels and re-arms on resume.
func (d *ReadDrive) scheduleVerifyDone() {
	if !d.lib.cfg.WritePath.Enabled || d.verifyPlatter == 0 || d.verifySince < 0 {
		return
	}
	if d.verifyDone != nil {
		d.verifyDone.Cancel()
	}
	wait := d.verifyRemaining / d.lib.cfg.DriveThroughput
	start := d.verifySince
	if now := d.lib.sim.Now(); start < now {
		start = now
	}
	d.verifyDone = d.lib.sim.At(start+wait, func() {
		d.verifyDone = nil
		d.finishVerify()
	})
}

// finishVerify completes the verification read of the mounted platter.
func (d *ReadDrive) finishVerify() {
	if d.verifyPlatter == 0 {
		return
	}
	d.lib.metrics.PlattersVerified++
	d.verifiedPlatter = d.verifyPlatter
	d.verifyPlatter = 0
	d.verifyRemaining = 0
	// Close the verify span: nothing left to verify until the next
	// delivery.
	if d.verifySince >= 0 {
		now := d.lib.sim.Now()
		if now > d.verifySince {
			d.verifySecs += now - d.verifySince
		}
		d.verifySince = -1
	}
	d.lib.driveFreed(d.idx)
}

// driveWithVerified returns a drive holding a verified platter
// awaiting storage.
func (l *Library) driveWithVerified(part int) *ReadDrive {
	for _, di := range l.partDrives[part] {
		d := l.drives[di]
		if d.verifiedPlatter != 0 && !d.storeClaimed {
			return d
		}
	}
	return nil
}
