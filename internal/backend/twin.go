package backend

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"silica/internal/controller"
	"silica/internal/library"
	"silica/internal/media"
	"silica/internal/obs"
)

// TwinConfig sizes a Twin backend.
type TwinConfig struct {
	// Library is the digital-twin configuration. Policy selects the
	// scheduling policy; PlatterGeom should match the service geometry
	// so track-scan times reflect the bytes actually stored.
	Library library.Config
	// Speedup maps virtual seconds to wall seconds: the twin's clock
	// runs Speedup× faster than real time, so tests finish quickly
	// while ordering and contention stay real. Default 200.
	Speedup float64
	// Metrics, when set, registers silica_backend_* families.
	Metrics *obs.Registry
}

// DefaultTwinLibrary is the serving-sized twin: the paper's panel
// layout and mechanics with a platter population small enough that a
// load generator touches every platter, and the service's platter
// geometry so scan times reflect real track sizes.
func DefaultTwinLibrary(geom media.Geometry) library.Config {
	cfg := library.DefaultConfig()
	cfg.PlatterGeom = geom
	cfg.Platters = 512
	return cfg
}

// Twin charges every operation to a calibrated library.Library. One
// pump goroutine advances the simulation clock at Speedup× wall rate;
// Do submits a classed request and blocks until its virtual
// completion maps back to wall time.
type Twin struct {
	speedup float64
	metrics *twinMetrics

	// Fixed at construction: the library serialises its own event loop
	// (SubmitAt, Advance, Drain, Snapshot), so reading them takes no lock.
	lib    *library.Library
	libCfg library.Config
	epoch  time.Time

	wakec  chan struct{}
	stopc  chan struct{}
	donec  chan struct{}
	closed atomic.Bool

	inFlight atomic.Int64
}

// NewTwin builds and starts a Twin backend.
func NewTwin(cfg TwinConfig) (*Twin, error) {
	if cfg.Speedup == 0 {
		cfg.Speedup = DefaultSpeedup
	}
	if cfg.Speedup < 0 {
		return nil, fmt.Errorf("backend: speedup must be positive, got %v", cfg.Speedup)
	}
	t := &Twin{
		speedup: cfg.Speedup,
		libCfg:  cfg.Library,
		wakec:   make(chan struct{}, 1),
		stopc:   make(chan struct{}),
		donec:   make(chan struct{}),
	}
	t.metrics = newTwinMetrics(cfg.Metrics, t)
	cfg.Library.Observer = t.metrics.observer()
	lib, err := library.New(cfg.Library)
	if err != nil {
		return nil, err
	}
	t.lib = lib
	t.epoch = time.Now()
	go t.pump()
	return t, nil
}

// classOf maps an operation kind to the controller's traffic class.
func classOf(k OpKind) controller.Class {
	switch k {
	case OpBurn:
		return controller.ClassBurn
	case OpScrub:
		return controller.ClassScrub
	case OpRebuildRead:
		return controller.ClassRebuild
	default:
		return controller.ClassRead
	}
}

// Do submits op to the twin and blocks until its mechanical cost has
// elapsed in wall time. The request rides the same scheduler, shuttles
// and drives as every other in-flight operation, so contention and
// policy arbitration are real.
func (t *Twin) Do(ctx context.Context, op Op) (Span, error) {
	if err := ctx.Err(); err != nil {
		return Span{}, err
	}
	if t.closed.Load() {
		return Span{}, ErrClosed
	}
	start := time.Now()
	done := make(chan struct{})
	var vlat float64

	v := time.Since(t.epoch).Seconds() * t.speedup
	st, tc := clampTracks(op, t.libCfg.PlatterGeom)
	bytes := op.Bytes
	if bytes <= 0 {
		bytes = int64(tc) * t.libCfg.PlatterGeom.TrackRawBytes()
	}
	req := &controller.Request{
		Platter:    media.PlatterID(int(op.Platter) % t.lib.Platters()),
		StartTrack: st,
		TrackCount: tc,
		Bytes:      bytes,
		Class:      classOf(op.Kind),
		// Done fires inside the simulation loop: record the virtual
		// latency and close the channel — both non-blocking, per the
		// controller.Request.Done contract.
		Done: func(ct float64) {
			vlat = ct - v
			close(done)
		},
	}
	t.lib.SubmitAt(v, req)

	t.inFlight.Add(1)
	defer t.inFlight.Add(-1)
	select { // wake the pump: a new event may precede its next deadline
	case t.wakec <- struct{}{}:
	default:
	}

	select {
	case <-done:
	case <-ctx.Done():
		// The request stays in the simulation and completes later; its
		// Done closes a channel nobody listens on. Charge the wall time
		// actually waited.
		return Span{Wall: time.Since(start).Seconds()}, ctx.Err()
	case <-t.stopc:
		// Shutdown: fast-forward so no Done is abandoned.
		t.lib.Drain()
		<-done
	}
	span := Span{Wall: time.Since(start).Seconds(), Virtual: vlat}
	t.metrics.observeOp(op.Kind, span)
	return span, nil
}

// clampTracks maps an op's track span into the twin's platter
// geometry (service and twin geometries may differ in track count).
func clampTracks(op Op, geom media.Geometry) (start, count int) {
	tracks := geom.TracksPerPlatter
	if tracks < 1 {
		tracks = 1
	}
	start = op.StartTrack
	if start < 0 {
		start = 0
	}
	if start >= tracks {
		start = start % tracks
	}
	count = op.TrackCount
	if count < 1 {
		count = 1
	}
	if start+count > tracks {
		count = tracks - start
	}
	return start, count
}

// pump advances the simulation to the throttled virtual now, sleeps
// until the next event's wall time (or a new submission), repeats.
func (t *Twin) pump() {
	defer close(t.donec)
	for {
		v := time.Since(t.epoch).Seconds() * t.speedup
		next, ok := t.lib.Advance(v)
		var wait time.Duration
		if ok {
			dv := next - v
			if dv < 0 {
				dv = 0
			}
			wait = time.Duration(dv / t.speedup * float64(time.Second))
			if wait < time.Millisecond {
				wait = time.Millisecond // never spin hot
			}
		} else {
			wait = 50 * time.Millisecond // idle; wakec interrupts sooner
		}
		select {
		case <-t.stopc:
			t.lib.Drain()
			return
		case <-t.wakec:
		case <-time.After(wait):
		}
	}
}

// Close stops the pump after draining every pending event; in-flight
// Do calls complete with their fast-forwarded spans.
func (t *Twin) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(t.stopc)
	<-t.donec
	return nil
}

// twinMetrics holds the silica_backend_* instruments. All fields are
// nil-safe: a Twin without a registry observes nothing.
type twinMetrics struct {
	wall    [numOpKinds]*obs.Histogram
	virtual [numOpKinds]*obs.Histogram
	mount   *obs.Histogram
	travel  *obs.Histogram
}

func newTwinMetrics(reg *obs.Registry, t *Twin) *twinMetrics {
	m := &twinMetrics{}
	if reg == nil {
		return m
	}
	RegisterInfo(reg, "twin", t.libCfg.Policy.String(), t.speedup)
	for k := OpKind(0); k < numOpKinds; k++ {
		m.wall[k] = reg.Histogram("silica_backend_mech_seconds",
			"Wall-clock mechanical latency charged per media operation.",
			obs.DurationBuckets(), obs.L("op", k.String()))
		m.virtual[k] = reg.Histogram("silica_backend_mech_virtual_seconds",
			"Virtual (simulated) mechanical latency per media operation.",
			obs.DurationBuckets(), obs.L("op", k.String()))
	}
	m.mount = reg.Histogram("silica_backend_mount_seconds",
		"Virtual seconds per drive mount/unmount charge.",
		obs.DurationBuckets())
	m.travel = reg.Histogram("silica_backend_travel_seconds",
		"Virtual seconds per shuttle travel leg (incl. congestion).",
		obs.DurationBuckets())

	virtualNow := reg.Gauge("silica_backend_virtual_seconds",
		"Twin virtual clock position.")
	inflight := reg.Gauge("silica_backend_inflight_ops",
		"Backend operations currently blocked on mechanical latency.")
	var qd [controller.NumClasses]*obs.Gauge
	for c := controller.Class(0); c < controller.NumClasses; c++ {
		qd[c] = reg.Gauge("silica_backend_queue_depth",
			"Twin scheduler queue depth by traffic class.",
			obs.L("class", c.String()))
	}
	var util [5]*obs.Gauge
	for i, state := range []string{"read", "verify", "mount", "switch", "idle"} {
		util[i] = reg.Gauge("silica_backend_drive_util",
			"Twin drive-time fraction by state (Figure 6 breakdown).",
			obs.L("state", state))
	}
	travels := reg.Gauge("silica_backend_shuttle_travels",
		"Twin shuttle travel legs completed.")
	travelSecs := reg.Gauge("silica_backend_shuttle_travel_seconds_total",
		"Twin cumulative shuttle travel seconds (virtual).")
	congestion := reg.Gauge("silica_backend_shuttle_congestion_seconds_total",
		"Twin cumulative shuttle congestion delay seconds (virtual).")
	platterOps := reg.Gauge("silica_backend_shuttle_platter_ops",
		"Twin platter fetch/return operations completed by shuttles.")
	reg.OnScrape(func() {
		ls := t.lib.Snapshot()
		virtualNow.Set(ls.VirtualNow)
		inflight.Set(float64(t.inFlight.Load()))
		for c := controller.Class(0); c < controller.NumClasses; c++ {
			qd[c].Set(float64(ls.QueueDepth[c]))
		}
		util[0].Set(ls.DriveUtil.Read)
		util[1].Set(ls.DriveUtil.Verify)
		util[2].Set(ls.DriveUtil.Mount)
		util[3].Set(ls.DriveUtil.Switch)
		util[4].Set(ls.DriveUtil.Idle)
		travels.Set(float64(ls.Shuttles.Travels))
		travelSecs.Set(ls.Shuttles.TravelSecs)
		congestion.Set(ls.Shuttles.CongestionSecs)
		platterOps.Set(float64(ls.Shuttles.PlatterOps))
	})
	return m
}

// observer wires the library's per-event callbacks to histograms. The
// callbacks fire inside the simulation loop; Histogram.Observe is
// lock-free, satisfying the no-blocking contract.
func (m *twinMetrics) observer() library.Observer {
	return library.Observer{
		Mount: func(s float64) {
			if m.mount != nil {
				m.mount.Observe(s)
			}
		},
		Travel: func(s float64) {
			if m.travel != nil {
				m.travel.Observe(s)
			}
		},
	}
}

func (m *twinMetrics) observeOp(k OpKind, sp Span) {
	if m.wall[k] != nil {
		m.wall[k].Observe(sp.Wall)
	}
	if m.virtual[k] != nil {
		m.virtual[k].Observe(sp.Virtual)
	}
}
