// Package library is the digital twin of a Silica glass library (§4,
// §7): storage/read/write racks with calibrated mechanics, free-roaming
// shuttles under a partitioned traffic manager with optional work
// stealing, dual-slot read drives that interleave customer reads with
// verification via fast switching, and cross-platter recovery reads
// for unavailable platters. Three policies are provided, matching the
// paper's evaluation: PolicySilica (logical partitioning + work
// stealing), PolicySP (the shortest-paths strawman with no
// partitioning), and PolicyNS (the infeasible no-shuttles lower bound
// where platters teleport to drives).
package library

import (
	"fmt"
	"sync"

	"silica/internal/controller"
	"silica/internal/geometry"
	"silica/internal/mechanics"
	"silica/internal/media"
	"silica/internal/sim"
	"silica/internal/stats"
)

// Policy selects the shuttle-management policy (§7.2).
type Policy int

const (
	// PolicySilica partitions the panel into per-shuttle rectangles
	// and optionally steals work across partitions under skew.
	PolicySilica Policy = iota
	// PolicySP is the strawman: no partitions, every shuttle may move
	// anywhere via shortest paths.
	PolicySP
	// PolicyNS is the no-shuttles lower bound: platter delivery is
	// free and instantaneous; only drive mechanics remain.
	PolicyNS
)

func (p Policy) String() string {
	switch p {
	case PolicySilica:
		return "silica"
	case PolicySP:
		return "sp"
	case PolicyNS:
		return "ns"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config sizes one library simulation.
type Config struct {
	Layout          geometry.Config
	Policy          Policy
	Shuttles        int
	DriveThroughput float64 // bytes/sec per read drive
	PlatterGeom     media.Geometry
	Platters        int  // platters stored in the library
	Verification    bool // drives verify when idle (§3.1)
	WorkStealing    bool
	StealThreshold  int64 // queued-byte imbalance that triggers stealing
	// ProactiveStealing lets a shuttle with local work pending still
	// steal from a far more loaded partition; off, shuttles steal only
	// when their own partition has nothing accessible.
	ProactiveStealing bool
	// Prefetch lets a second shuttle carry the next platter to a busy
	// drive and wait at its slot, pipelining mounts.
	Prefetch        bool
	SetInfo, SetRed int // platter-set shape (16+3 in the paper)
	// PartitionCap, when positive, caps the number of logical
	// partitions below the shuttle count — an ablation knob: fewer
	// partitions pool more drives per queue (better under bandwidth-
	// bound load) at the cost of intra-partition shuttle conflicts.
	PartitionCap int
	Seed         uint64
	// Observer receives per-event mechanical timings as the simulation
	// charges them; nil fields are ignored. The serving backend wires
	// obs histograms here (mount seconds, shuttle travel legs).
	Observer Observer
}

// Observer is a set of optional per-event callbacks, fired inside the
// simulation loop. Implementations must not block and must not call
// back into the library (the controller.Request.Done contract applies).
type Observer struct {
	// Mount observes one mount or unmount charge, in virtual seconds.
	Mount func(seconds float64)
	// Travel observes one shuttle travel leg (sampled motion plus
	// congestion delay), in virtual seconds.
	Travel func(seconds float64)
}

// DefaultConfig is the paper's evaluation baseline: 20 drives at
// 60 MB/s, 20 shuttles, partitioned policy with work stealing, 16+3
// platter sets.
func DefaultConfig() Config {
	return Config{
		Layout:          geometry.DefaultConfig(),
		Policy:          PolicySilica,
		Shuttles:        20,
		DriveThroughput: 60e6,
		PlatterGeom:     media.DefaultGeometry(),
		Platters:        4000,
		Verification:    true,
		WorkStealing:    true,
		StealThreshold:  1e9,
		Prefetch:        false,
		SetInfo:         16,
		SetRed:          3,
	}
}

// Metrics aggregates what the evaluation section measures.
type Metrics struct {
	Completions   *stats.Sample // customer request completion times (s)
	TravelTimes   *stats.Sample // individual shuttle travel durations
	Submitted     int
	InternalReads int // recovery reads generated
	Unrecoverable int // requests that failed (too many set members down)
	BytesRead     int64
}

// Library is one simulated library panel.
//
// Concurrency: the simulation itself is single-threaded. The classic
// trace API (Submit, RunTrace, and the stats readers when called after
// RunTrace returns) is safe from one goroutine, as every experiment
// uses it. To serve live traffic, the concurrent-driver API —
// SubmitAt, Advance, Drain, Snapshot — serializes on an internal
// mutex so one goroutine can pump the event loop while others submit
// requests and scrape statistics. Do not call the classic API while a
// concurrent driver is active.
type Library struct {
	mu     sync.Mutex // serializes the concurrent-driver API
	cfg    Config
	sim    *sim.Simulator
	rng    *sim.RNG
	layout *geometry.Layout
	mech   *mechanics.Model
	sched  *controller.Scheduler
	resv   *controller.ReservationTable
	steal  controller.Stealer

	parts       []geometry.Partition
	shuttles    []*Shuttle
	drives      []*ReadDrive
	driveByAddr map[geometry.DriveAddr]int
	partDrives  [][]int // partition -> drive indices
	drivePart   [][]int // drive -> every partition that lists it

	platterSlot map[media.PlatterID]geometry.SlotAddr
	platterPart map[media.PlatterID]int
	platterBusy map[media.PlatterID]bool
	unavailable map[media.PlatterID]bool

	kickPending []bool
	nextReqID   controller.RequestID
	prefetching int     // shuttles holding a platter for a busy drive
	accountedTo float64 // drive accounting flushed up to this time

	metrics Metrics
}

// New builds a library simulation.
func New(cfg Config) (*Library, error) {
	if cfg.DriveThroughput <= 0 {
		return nil, fmt.Errorf("library: drive throughput must be positive")
	}
	if cfg.Platters < 1 {
		return nil, fmt.Errorf("library: need at least one platter")
	}
	if cfg.SetInfo < 1 || cfg.SetRed < 0 {
		return nil, fmt.Errorf("library: bad platter-set shape %d+%d", cfg.SetInfo, cfg.SetRed)
	}
	if err := cfg.PlatterGeom.Validate(); err != nil {
		return nil, err
	}
	layout, err := geometry.NewLayout(cfg.Layout)
	if err != nil {
		return nil, err
	}
	if cfg.Platters > layout.NumSlots() {
		return nil, fmt.Errorf("library: %d platters exceed %d slots", cfg.Platters, layout.NumSlots())
	}
	if cfg.Policy != PolicyNS {
		if cfg.Shuttles < 1 {
			return nil, fmt.Errorf("library: shuttle policies need at least one shuttle")
		}
		if cfg.Shuttles > 2*layout.NumDrives() {
			return nil, fmt.Errorf("library: %d shuttles exceed the 2-per-drive panel limit", cfg.Shuttles)
		}
	}

	mech := mechanics.Default()
	l := &Library{
		cfg:         cfg,
		sim:         sim.New(),
		rng:         sim.NewRNG(cfg.Seed).Fork("library"),
		layout:      layout,
		mech:        mech,
		resv:        controller.NewReservationTable(mech.RestartPenalty),
		steal:       controller.Stealer{ThresholdBytes: cfg.StealThreshold},
		driveByAddr: make(map[geometry.DriveAddr]int),
		platterSlot: make(map[media.PlatterID]geometry.SlotAddr),
		platterPart: make(map[media.PlatterID]int),
		platterBusy: make(map[media.PlatterID]bool),
		unavailable: make(map[media.PlatterID]bool),
	}
	l.metrics.Completions = stats.NewSample()
	l.metrics.TravelTimes = stats.NewSample()

	// Partitions: Silica carves one rectangle per shuttle up to one
	// per drive; beyond that, shuttles pair up within partitions (the
	// drive's two platter slots support two shuttles working it, and
	// the pair overlaps fetch with return). SP and NS treat the panel
	// as a single region.
	nParts := 1
	if cfg.Policy == PolicySilica {
		nParts = cfg.Shuttles
		if max := layout.NumDrives(); nParts > max {
			nParts = max
		}
		if cfg.PartitionCap > 0 && nParts > cfg.PartitionCap {
			nParts = cfg.PartitionCap
		}
	}
	l.parts, err = geometry.BuildPartitions(layout, nParts)
	if err != nil {
		return nil, err
	}
	l.sched = controller.NewScheduler(len(l.parts))
	l.kickPending = make([]bool, len(l.parts))

	// Drives.
	for i, addr := range layout.Drives() {
		l.drives = append(l.drives, newReadDrive(l, i, addr))
		l.driveByAddr[addr] = i
	}
	l.partDrives = make([][]int, len(l.parts))
	l.drivePart = make([][]int, len(l.drives))
	for pi := range l.parts {
		for _, addr := range l.parts[pi].Drives {
			di := l.driveByAddr[addr]
			l.partDrives[pi] = append(l.partDrives[pi], di)
			l.drivePart[di] = append(l.drivePart[di], pi)
		}
	}
	for i := range l.drivePart {
		if len(l.drivePart[i]) == 0 {
			l.drivePart[i] = []int{0}
		}
	}

	// Shuttles, one per partition under Silica; spread under SP.
	if cfg.Policy != PolicyNS {
		for i := 0; i < cfg.Shuttles; i++ {
			part := i % len(l.parts)
			home := l.parts[part].Home()
			if cfg.Policy == PolicySP {
				// Spread resting spots across the panel.
				home = geometry.Pos{
					X:    l.layout.Width() * (float64(i) + 0.5) / float64(cfg.Shuttles),
					Rail: i % layout.ShelvesPerRack,
				}
			}
			l.shuttles = append(l.shuttles, &Shuttle{lib: l, id: i, part: part, pos: home})
		}
	}

	// Platters: uniform placement across storage slots, fixed homes.
	stride := layout.NumSlots() / cfg.Platters
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < cfg.Platters; i++ {
		id := media.PlatterID(i)
		slot := layout.SlotAt(i * stride)
		l.platterSlot[id] = slot
		l.platterPart[id] = l.partitionOfSlot(slot)
	}
	return l, nil
}

func (l *Library) partitionOfSlot(slot geometry.SlotAddr) int {
	pos := l.layout.SlotPos(slot)
	for i := range l.parts {
		if l.parts[i].ContainsSlotPos(pos) {
			return i
		}
	}
	return 0
}

// Sim exposes the simulator for trace drivers.
func (l *Library) Sim() *sim.Simulator { return l.sim }

// Metrics returns the collected metrics.
func (l *Library) Metrics() *Metrics { return &l.metrics }

// Platters reports the number of stored platters.
func (l *Library) Platters() int { return l.cfg.Platters }

// NextRequestID hands out request identifiers.
func (l *Library) NextRequestID() controller.RequestID {
	l.nextReqID++
	return l.nextReqID
}

// MarkUnavailable takes a fraction of platters out of service,
// chosen uniformly (the Figure 8 setup).
func (l *Library) MarkUnavailable(frac float64) {
	n := int(frac * float64(l.cfg.Platters))
	perm := l.rng.Fork("unavail").Perm(l.cfg.Platters)
	for _, i := range perm[:n] {
		l.unavailable[media.PlatterID(i)] = true
	}
}

// MarkZoneUnavailable fails every platter homed in a blast zone (§6).
func (l *Library) MarkZoneUnavailable(z geometry.BlastZone) int {
	n := 0
	for id, slot := range l.platterSlot {
		if geometry.SlotZone(slot) == z {
			l.unavailable[id] = true
			n++
		}
	}
	return n
}

// Submit enqueues a customer read request at the current virtual time.
// Reads of unavailable platters fan out into SetInfo recovery reads on
// the other members of the platter-set (§5, §7.6).
func (l *Library) Submit(req *controller.Request) {
	l.metrics.Submitted++
	if l.unavailable[req.Platter] {
		l.submitRecovery(req)
		return
	}
	l.enqueue(req)
}

func (l *Library) enqueue(req *controller.Request) {
	part := l.groupOf(req.Platter)
	l.sched.Add(req, part)
	l.kick(part)
	// The controller monitors per-partition load (§4.1); when a
	// partition's backlog crosses the stealing threshold, idle
	// shuttles elsewhere are woken so they can steal from it.
	if l.cfg.Policy == PolicySilica && l.cfg.WorkStealing &&
		l.sched.GroupBytes(part) > l.cfg.StealThreshold {
		l.kickAll()
	}
}

// groupOf maps a platter to its scheduler group (its partition under
// Silica; group 0 otherwise).
func (l *Library) groupOf(p media.PlatterID) int {
	if l.cfg.Policy == PolicySilica {
		return l.platterPart[p]
	}
	return 0
}

// setMembers lists the available members of p's platter-set, excluding
// p itself. Platter-sets are consecutive ID groups of SetInfo+SetRed.
func (l *Library) setMembers(p media.PlatterID) []media.PlatterID {
	size := l.cfg.SetInfo + l.cfg.SetRed
	base := (int(p) / size) * size
	var out []media.PlatterID
	for i := base; i < base+size && i < l.cfg.Platters; i++ {
		id := media.PlatterID(i)
		if id == p || l.unavailable[id] {
			continue
		}
		out = append(out, id)
	}
	return out
}

// submitRecovery fans a read of an unavailable platter out to SetInfo
// matching-track reads across its platter-set; the original request
// completes when the last recovery read finishes (decode is
// disaggregated and excluded from completion time, §7.2).
func (l *Library) submitRecovery(orig *controller.Request) {
	members := l.setMembers(orig.Platter)
	if len(members) < l.cfg.SetInfo {
		l.metrics.Unrecoverable++
		return
	}
	members = members[:l.cfg.SetInfo]
	remaining := len(members)
	for _, m := range members {
		ir := &controller.Request{
			ID:         l.NextRequestID(),
			Platter:    m,
			StartTrack: orig.StartTrack,
			TrackCount: orig.TrackCount,
			Bytes:      orig.Bytes,
			Arrival:    orig.Arrival,
			Internal:   true,
			Done: func(t float64) {
				remaining--
				if remaining == 0 {
					l.metrics.Completions.Add(t - orig.Arrival)
					l.metrics.BytesRead += orig.Bytes
					if orig.Done != nil {
						orig.Done(t)
					}
				}
			},
		}
		l.metrics.InternalReads++
		l.enqueue(ir)
	}
}

// completeRequest records a finished read.
func (l *Library) completeRequest(r *controller.Request) {
	now := l.sim.Now()
	if !r.Internal {
		l.metrics.Completions.Add(now - r.Arrival)
		l.metrics.BytesRead += r.Bytes
	}
	if r.Done != nil {
		r.Done(now)
	}
}

// platterReturned puts a platter back in circulation after its home
// placement (or instantly under NS).
func (l *Library) platterReturned(p media.PlatterID) {
	l.platterBusy[p] = false
	// Requests may have queued while it was out; its scheduler entry
	// already exists in that case and the kick will find it.
	l.kick(l.groupOf(p))
}

// kick schedules a dispatch pass for a partition, coalescing repeats.
func (l *Library) kick(part int) {
	if part < 0 || part >= len(l.kickPending) {
		part = 0
	}
	if l.kickPending[part] {
		return
	}
	l.kickPending[part] = true
	l.sim.Schedule(0, func() {
		l.kickPending[part] = false
		l.dispatch(part)
	})
}

// driveFreed schedules dispatch for every partition that lists drive
// di: any of them may hold a fetch waiting for it, and a partition left
// unwoken waits for an unrelated event (at the end of a trace, forever).
func (l *Library) driveFreed(di int) {
	for _, p := range l.drivePart[di] {
		l.kick(p)
	}
}

// kickAll schedules dispatch for every partition.
func (l *Library) kickAll() {
	for i := range l.parts {
		l.kick(i)
	}
}

func (l *Library) accessible(p media.PlatterID) bool {
	return !l.platterBusy[p]
}

// dispatch assigns work to idle shuttles of a partition (or to idle
// drives under NS).
func (l *Library) dispatch(part int) {
	if l.cfg.Policy == PolicyNS {
		l.dispatchNS()
		return
	}
	for {
		s := l.idleShuttle(part)
		if s == nil {
			return
		}
		// Priority 1: return serviced platters so drives free up.
		if d := l.driveAwaitingPickup(part); d != nil {
			d.pickupClaimed = true
			s.returnPlatter(d)
			continue
		}
		// Priority 2: fetch a platter to a free drive in this
		// partition — normally this partition's earliest accessible
		// platter, but when the controller's load monitor reports that
		// another partition is overloaded beyond the stealing
		// threshold (§4.1, "lightly loaded partitions can temporarily
		// move outside of their assigned partition"), the shuttle
		// steals the victim's earliest platter instead, equalizing
		// queued bytes across drives.
		d := l.freeDrive(part)
		if d != nil {
			steal := false
			victim := -1
			if l.cfg.Policy == PolicySilica && l.cfg.WorkStealing && len(l.parts) > 1 {
				loads := make([]int64, len(l.parts))
				for i := range loads {
					loads[i] = l.sched.GroupBytes(i)
				}
				if v, ok := l.steal.PickVictim(loads, part); ok {
					victim = v
					steal = true
				}
			}
			if !l.cfg.ProactiveStealing {
				// Reactive mode: own work always wins.
				if p, ok := l.sched.SelectPlatter(part, l.accessible); ok {
					reqs := l.sched.Take(p)
					l.platterBusy[p] = true
					d.inbound++
					s.fetch(p, reqs, d, false)
					continue
				}
			}
			if p, ok := l.sched.SelectPlatter(part, l.accessible); ok && !steal {
				reqs := l.sched.Take(p)
				l.platterBusy[p] = true
				d.inbound++
				s.fetch(p, reqs, d, false)
				continue
			} else if steal {
				if p, ok := l.sched.SelectPlatter(victim, l.accessible); ok {
					reqs := l.sched.Take(p)
					l.platterBusy[p] = true
					d.inbound++
					s.fetch(p, reqs, d, true)
					continue
				}
				// Victim had nothing accessible; fall back to own work.
				if p, ok := l.sched.SelectPlatter(part, l.accessible); ok {
					reqs := l.sched.Take(p)
					l.platterBusy[p] = true
					d.inbound++
					s.fetch(p, reqs, d, false)
					continue
				}
			}
		}
		return
	}
}

// dispatchNS feeds idle drives directly: the platter teleports into
// the customer slot (the infinitely-fast-shuttle lower bound).
func (l *Library) dispatchNS() {
	for _, d := range l.drives {
		if !d.free() {
			continue
		}
		p, ok := l.sched.SelectPlatter(0, l.accessible)
		if !ok {
			return
		}
		reqs := l.sched.Take(p)
		l.platterBusy[p] = true
		d.place(p, reqs)
	}
}

func (l *Library) idleShuttle(part int) *Shuttle {
	for _, s := range l.shuttles {
		if s.part == part && !s.busy {
			return s
		}
	}
	return nil
}

func (l *Library) driveAwaitingPickup(part int) *ReadDrive {
	for _, di := range l.partDrives[part] {
		d := l.drives[di]
		if d.state == driveAwaitingPickup && !d.pickupClaimed {
			return d
		}
	}
	return nil
}

func (l *Library) freeDrive(part int) *ReadDrive {
	for _, di := range l.partDrives[part] {
		if d := l.drives[di]; d.free() {
			return d
		}
	}
	// Prefetch: with at least two shuttles working the partition, one
	// may carry the next platter to a drive that is still servicing
	// and wait at its slot — the mount pipeline that the drive's two
	// platter slots enable. One inbound platter per drive, and only
	// when another shuttle remains to run the return leg.
	if !l.cfg.Prefetch || l.shuttlesIn(part) < 2 {
		return nil
	}
	// Keep at least one shuttle free of prefetch waits so returns (and
	// therefore drive slots) always make progress.
	if l.prefetching >= len(l.shuttles)-1 {
		return nil
	}
	for _, di := range l.partDrives[part] {
		if d := l.drives[di]; d.state == driveServicing && d.inbound == 0 {
			return d
		}
	}
	return nil
}

func (l *Library) shuttlesIn(part int) int {
	n := 0
	for _, s := range l.shuttles {
		if s.part == part {
			n++
		}
	}
	return n
}

// RunTrace submits every request at its arrival time and runs the
// simulation to completion, then closes accounting at the horizon (or
// the last event, whichever is later).
func (l *Library) RunTrace(reqs []*controller.Request, horizon float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range reqs {
		r := r
		l.sim.At(r.Arrival, func() { l.Submit(r) })
	}
	l.sim.Run()
	end := l.sim.Now()
	if horizon > end {
		end = horizon
	}
	for _, d := range l.drives {
		d.flush(end)
	}
	l.accountedTo = end
}

// SubmitAt schedules req's submission at virtual time t (clamped up to
// the current clock so a driver that has already advanced past t never
// schedules into the past). Arrival and, when unset, the request ID
// are assigned here so concurrent submitters need no further
// coordination. Safe for concurrent use with Advance, Drain, and
// Snapshot. req.Done fires later inside the event loop with the
// library lock held — it must follow the controller.Request.Done
// no-blocking contract.
func (l *Library) SubmitAt(t float64, req *controller.Request) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if now := l.sim.Now(); t < now {
		t = now
	}
	req.Arrival = t
	if req.ID == 0 {
		req.ID = l.NextRequestID()
	}
	l.sim.At(t, func() { l.Submit(req) })
}

// Advance fires every event due at or before virtual time t and moves
// the clock to t. It returns the time of the next pending event (ok
// false when the queue is idle). This is the pump a wall-clock driver
// calls: advance to the throttled virtual now, sleep until the next
// event's wall time, repeat.
func (l *Library) Advance(t float64) (next float64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sim.RunUntil(t)
	return l.sim.NextAt()
}

// Drain fires every pending event immediately, regardless of the
// wall clock — completing all in-flight requests at their scheduled
// virtual times. Used on shutdown and before a policy swap so no
// Done callback is abandoned.
func (l *Library) Drain() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sim.Run()
}

// LiveStats is a concurrency-safe snapshot of the signals a serving
// backend exports: the virtual clock, queue depths by traffic class,
// the Figure 6 drive-utilization breakdown, and the Figure 7 shuttle
// aggregates.
type LiveStats struct {
	VirtualNow    float64
	Pending       int // queued (not yet mounted) requests
	QueueDepth    [controller.NumClasses]int
	Submitted     int
	Completed     int
	InternalReads int
	Unrecoverable int
	BytesRead     int64
	DriveUtil     DriveUtil
	Shuttles      ShuttleStats
}

// Snapshot captures LiveStats under the library lock. Drive
// verification accounting is flushed to the current clock first, so
// utilization fractions are current rather than mount-edge stale.
func (l *Library) Snapshot() LiveStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.sim.Now()
	for _, d := range l.drives {
		d.flush(now)
	}
	if now > l.accountedTo {
		l.accountedTo = now
	}
	ls := LiveStats{
		VirtualNow:    now,
		Pending:       l.sched.Pending(),
		Submitted:     l.metrics.Submitted,
		Completed:     l.metrics.Completions.N(),
		InternalReads: l.metrics.InternalReads,
		Unrecoverable: l.metrics.Unrecoverable,
		BytesRead:     l.metrics.BytesRead,
		DriveUtil:     l.driveUtilizationLocked(now),
		Shuttles:      l.ShuttleStats(),
	}
	for c := controller.Class(0); c < controller.NumClasses; c++ {
		ls.QueueDepth[c] = l.sched.PendingByClass(c)
	}
	return ls
}

// DriveUtil is the Figure 6 breakdown, as fractions of the horizon.
type DriveUtil struct {
	Read   float64 // customer seeks + scans
	Verify float64
	Mount  float64 // mount + unmount
	Switch float64 // fast switching (excluded from utilization)
	Idle   float64
}

// Utilization is the paper's definition: everything except fast
// switching and idle.
func (u DriveUtil) Utilization() float64 { return u.Read + u.Verify + u.Mount }

// DriveUtilization aggregates drive time over a horizon. Verification
// accounting runs to the trace horizon even when the event queue
// drains early, so the divisor is clamped up to the accounted time.
func (l *Library) DriveUtilization(horizon float64) DriveUtil {
	return l.driveUtilizationLocked(horizon)
}

func (l *Library) driveUtilizationLocked(horizon float64) DriveUtil {
	if horizon < l.accountedTo {
		horizon = l.accountedTo
	}
	if horizon <= 0 {
		return DriveUtil{}
	}
	var u DriveUtil
	for _, d := range l.drives {
		u.Read += d.readSecs
		u.Verify += d.verifySecs
		u.Mount += d.mountSecs
		u.Switch += d.switchSecs
	}
	total := horizon * float64(len(l.drives))
	u.Read /= total
	u.Verify /= total
	u.Mount /= total
	u.Switch /= total
	u.Idle = 1 - u.Read - u.Verify - u.Mount - u.Switch
	if u.Idle < 0 {
		u.Idle = 0
	}
	return u
}

// ShuttleStats aggregates the Figure 7 signals.
type ShuttleStats struct {
	Travels        int
	PlatterOps     int
	StolenOps      int
	Conflicts      int
	TravelSecs     float64
	ExpectedSecs   float64
	CongestionSecs float64
	Energy         float64
}

// CongestionOverhead is congestion delay as a fraction of expected
// travel time (Fig. 7a).
func (s ShuttleStats) CongestionOverhead() float64 {
	if s.ExpectedSecs == 0 {
		return 0
	}
	return s.CongestionSecs / s.ExpectedSecs
}

// EnergyPerOp is motor energy per platter operation (Fig. 7b).
func (s ShuttleStats) EnergyPerOp() float64 {
	if s.PlatterOps == 0 {
		return 0
	}
	return s.Energy / float64(s.PlatterOps)
}

// ShuttleStats sums over all shuttles.
func (l *Library) ShuttleStats() ShuttleStats {
	var out ShuttleStats
	for _, s := range l.shuttles {
		out.Travels += s.travels
		out.PlatterOps += s.platterOps
		out.StolenOps += s.stolenOps
		out.Conflicts += s.conflicts
		out.TravelSecs += s.travelSecs
		out.ExpectedSecs += s.expectedSecs
		out.CongestionSecs += s.congestion
		out.Energy += s.energy
	}
	return out
}
