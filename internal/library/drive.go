package library

import (
	"silica/internal/controller"
	"silica/internal/geometry"
	"silica/internal/media"
)

// driveState tracks the customer platter slot of a read drive.
type driveState int

const (
	driveEmpty driveState = iota
	driveServicing
	driveAwaitingPickup
)

// ReadDrive models one read drive (§3.1, §4): two platter slots — one
// permanently occupied by a platter under verification, one for
// customer reads — with 1 s fast switching between them. Customer
// traffic preempts verification; verification soaks up all remaining
// drive time, which is how the paper keeps drives >96% utilized.
type ReadDrive struct {
	lib  *Library
	idx  int
	addr geometry.DriveAddr
	pos  geometry.Pos

	state         driveState
	cust          media.PlatterID
	pending       []*controller.Request // requests taken at fetch time
	inbound       int                   // fetch tasks en route to this drive
	waiters       []func()              // shuttles waiting for the slot to free
	pickupClaimed bool                  // a return task has been assigned

	// Verification bookkeeping: the drive verifies whenever it is not
	// serving customer reads (the paper assumes a verification platter
	// is always mounted in the second slot).
	verifySince float64 // >= 0 while verifying (may be in the near future after a switch); -1 when not

	// Time accounting for Figure 6.
	readSecs   float64 // seeks + track reads for customer requests
	mountSecs  float64 // mount + unmount
	verifySecs float64
	switchSecs float64 // fast switching (excluded from utilization)
}

func newReadDrive(lib *Library, idx int, addr geometry.DriveAddr) *ReadDrive {
	d := &ReadDrive{
		lib:         lib,
		idx:         idx,
		addr:        addr,
		pos:         lib.layout.DrivePos(addr),
		verifySince: -1,
	}
	if lib.cfg.Verification {
		// Paper assumption: a platter to verify is always mounted.
		d.verifySince = 0
	}
	return d
}

// free reports whether a fetch task may target this drive.
func (d *ReadDrive) free() bool { return d.state == driveEmpty && d.inbound == 0 }

// pauseVerify ends the current verification span, charging fast-switch
// time, and returns the extra latency before the customer platter can
// mount.
func (d *ReadDrive) pauseVerify() float64 {
	if d.verifySince < 0 {
		return 0
	}
	now := d.lib.sim.Now()
	if now > d.verifySince {
		d.verifySecs += now - d.verifySince
	}
	d.verifySince = -1
	d.switchSecs += d.lib.mech.FastSwitch
	return d.lib.mech.FastSwitch
}

// resumeVerify restarts verification after the customer slot quiesces.
func (d *ReadDrive) resumeVerify(afterSwitch bool) {
	if !d.lib.cfg.Verification || d.verifySince >= 0 {
		return
	}
	if afterSwitch {
		d.switchSecs += d.lib.mech.FastSwitch
		d.verifySince = d.lib.sim.Now() + d.lib.mech.FastSwitch
	} else {
		d.verifySince = d.lib.sim.Now()
	}
}

// place inserts a fetched platter into the customer slot and starts
// service. Caller must have ensured the slot is empty.
func (d *ReadDrive) place(p media.PlatterID, reqs []*controller.Request) {
	if d.state != driveEmpty {
		panic("library: place into occupied drive")
	}
	d.state = driveServicing
	d.cust = p
	d.pending = reqs
	delay := d.pauseVerify()
	mount := d.lib.mech.Mount
	d.mountSecs += mount
	if fn := d.lib.cfg.Observer.Mount; fn != nil {
		fn(mount)
	}
	d.lib.sim.Schedule(delay+mount, d.serviceBatch)
}

// serviceBatch reads every pending request, then checks the scheduler
// for requests that arrived while the platter was mounted ("once a
// platter is inserted into a read drive all the requests for that
// platter are serviced", §4.1).
func (d *ReadDrive) serviceBatch() {
	reqs := d.pending
	d.pending = nil
	if late := d.lib.sched.Take(d.cust); len(late) > 0 {
		reqs = append(reqs, late...)
	}
	if len(reqs) == 0 {
		d.finishService()
		return
	}
	// Service sequentially: one seek per request, then its tracks in a
	// single serpentine scan.
	var offset float64
	for _, r := range reqs {
		r := r
		offset += d.lib.mech.Seek.Sample(d.lib.rng)
		offset += d.readTime(r)
		d.lib.sim.Schedule(offset, func() { d.lib.completeRequest(r) })
	}
	d.readSecs += offset
	d.lib.sim.Schedule(offset, d.serviceBatch)
}

// readTime is the scan duration of one request's tracks.
func (d *ReadDrive) readTime(r *controller.Request) float64 {
	tracks := r.TrackCount
	if tracks < 1 {
		tracks = 1
	}
	raw := float64(tracks) * float64(d.lib.cfg.PlatterGeom.TrackRawBytes())
	return raw / d.lib.cfg.DriveThroughput
}

// finishService unmounts the customer platter and resumes
// verification. In shuttle policies the platter then awaits pickup; in
// the NS baseline it teleports home.
func (d *ReadDrive) finishService() {
	unmount := d.lib.mech.Unmount
	d.mountSecs += unmount
	if fn := d.lib.cfg.Observer.Mount; fn != nil {
		fn(unmount)
	}
	d.lib.sim.Schedule(unmount, func() {
		p := d.cust
		if d.lib.cfg.Policy == PolicyNS {
			d.state = driveEmpty
			d.cust = 0
			d.lib.platterReturned(p)
			d.resumeVerify(true)
			d.notifyFree()
			d.lib.kickAll()
			return
		}
		d.state = driveAwaitingPickup
		d.resumeVerify(true)
		d.lib.driveFreed(d.idx)
	})
}

// pickup removes the platter awaiting pickup; the shuttle calls this
// after its pick completes.
func (d *ReadDrive) pickup() media.PlatterID {
	if d.state != driveAwaitingPickup {
		panic("library: pickup from drive with no waiting platter")
	}
	p := d.cust
	d.state = driveEmpty
	d.cust = 0
	d.pickupClaimed = false
	d.notifyFree()
	return p
}

// notifyFree wakes shuttles waiting to place into this drive.
func (d *ReadDrive) notifyFree() {
	ws := d.waiters
	d.waiters = nil
	for _, w := range ws {
		w()
	}
}

// flush closes the open verification span at simulation end.
func (d *ReadDrive) flush(now float64) {
	if d.verifySince >= 0 {
		if now > d.verifySince {
			d.verifySecs += now - d.verifySince
		}
		d.verifySince = -1
	}
}
