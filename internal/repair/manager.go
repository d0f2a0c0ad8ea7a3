package repair

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"silica/internal/media"
	"silica/internal/obs"
)

// Config shapes the background scrubber and rebuilder.
type Config struct {
	// ScrubInterval is the pause between scrub picks. Each pick scrubs
	// one platter, so a library of N platters is fully revisited about
	// every N*ScrubInterval (sooner for suspects, which are
	// prioritized).
	ScrubInterval time.Duration
	// SampleTracks bounds the tracks decoded per scrub pass; successive
	// passes rotate through the platter so coverage accumulates.
	// <= 0 scrubs every used track each pass.
	SampleTracks int
	// SuspectMargin: a scrubbed sector margin below this marks the
	// platter suspect (the §5 "expected read error rate over time"
	// signal — low margin on glass predicts trouble as noise grows).
	SuspectMargin float64
	// SuspectReports: degraded-read reports since the last scrub that
	// mark a platter suspect even before its next scrub confirms.
	SuspectReports int64
	// AutoRebuild enqueues failed platters for rebuild automatically;
	// when false, rebuilds run only via RequestRebuild (the operator
	// POST /v1/repair path).
	AutoRebuild bool
	// RebuildBackoff is the delay before retrying a failed rebuild.
	RebuildBackoff time.Duration
	// Metrics receives the repair subsystem's telemetry (scrub and
	// rebuild counters, margin histogram, health-state gauges). Nil
	// gets a private registry, so the loops never nil-check.
	Metrics *obs.Registry
}

// DefaultConfig returns scrubbing tuned for the tiny in-memory
// geometry: fast enough that tests and the load smoke observe repairs,
// slow enough to stay far off the foreground path.
func DefaultConfig() Config {
	return Config{
		ScrubInterval:  25 * time.Millisecond,
		SampleTracks:   2,
		SuspectMargin:  0.05,
		SuspectReports: 8,
		AutoRebuild:    true,
		RebuildBackoff: 100 * time.Millisecond,
	}
}

// ManagerStats counts background repair activity.
type ManagerStats struct {
	Scrubs         int64 `json:"scrubs"`
	ScrubSkips     int64 `json:"scrub_skips"` // gate closed: yielded to foreground
	RebuildsDone   int64 `json:"rebuilds_done"`
	RebuildsFailed int64 `json:"rebuilds_failed"`
	RebuildsActive int64 `json:"rebuilds_active"`
	RebuildsQueued int64 `json:"rebuilds_queued"`
}

// Manager owns the scrub loop and the rebuild worker. Create with
// NewManager, start with Start, stop with Close.
type Manager struct {
	cfg  Config
	tgt  Target
	reg  *Registry
	gate func() bool

	rebuildq chan media.PlatterID
	stop     chan struct{}
	wg       sync.WaitGroup

	mu     sync.Mutex
	queued map[media.PlatterID]bool
	cursor int

	rebuildsActive atomic.Int64

	// om holds the manager's event counts; Stats is a view of it.
	om managerMetrics
}

// NewManager wires a manager over a storage target and its health
// registry. gate reports whether background work may run now (the
// gateway passes its queues-under-watermark check); nil means always.
func NewManager(tgt Target, reg *Registry, gate func() bool, cfg Config) *Manager {
	def := DefaultConfig()
	if cfg.ScrubInterval <= 0 {
		cfg.ScrubInterval = def.ScrubInterval
	}
	if cfg.SuspectMargin <= 0 {
		cfg.SuspectMargin = def.SuspectMargin
	}
	if cfg.SuspectReports <= 0 {
		cfg.SuspectReports = def.SuspectReports
	}
	if cfg.RebuildBackoff <= 0 {
		cfg.RebuildBackoff = def.RebuildBackoff
	}
	if gate == nil {
		gate = func() bool { return true }
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	m := &Manager{
		cfg:      cfg,
		tgt:      tgt,
		reg:      reg,
		gate:     gate,
		rebuildq: make(chan media.PlatterID, 64),
		stop:     make(chan struct{}),
		queued:   make(map[media.PlatterID]bool),
	}
	m.om = newManagerMetrics(cfg.Metrics, m)
	return m
}

// Start launches the scrub and rebuild loops.
func (m *Manager) Start() {
	m.wg.Add(2)
	go m.scrubLoop()
	go m.rebuildLoop()
}

// Close stops background work and waits for in-flight scrub/rebuild
// passes to finish.
func (m *Manager) Close() {
	close(m.stop)
	m.wg.Wait()
}

// Stats snapshots repair activity: event counts read off the registry
// children /metrics exposes, the active and queued rebuilds from state.
func (m *Manager) Stats() ManagerStats {
	m.mu.Lock()
	queued := int64(len(m.queued))
	m.mu.Unlock()
	return ManagerStats{
		Scrubs:         m.om.scrubs.Value(),
		ScrubSkips:     m.om.scrubSkips.Value(),
		RebuildsDone:   m.om.rebuildDone.Value(),
		RebuildsFailed: m.om.rebuildFail.Value(),
		RebuildsActive: m.rebuildsActive.Load(),
		RebuildsQueued: queued,
	}
}

// RebuildsActive reports rebuilds currently running or queued; the
// gateway's healthz reports degraded while this is nonzero.
func (m *Manager) RebuildsActive() int64 {
	st := m.Stats()
	return st.RebuildsActive + st.RebuildsQueued
}

// RequestRebuild is the operator path (POST /v1/repair/{platter}): the
// platter is declared failed if it is still serving, then queued for
// rebuild from its set. A platter with no completed platter-set is
// rejected up front — failing it would lose data with no redundancy
// to rebuild from.
func (m *Manager) RequestRebuild(id media.PlatterID) error {
	rec, ok := m.reg.Get(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownPlatter, id)
	}
	if !m.hasRebuildSource(id) {
		return fmt.Errorf("platter %d: %w", id, ErrNoRebuildSource)
	}
	switch rec.Health() {
	case Retired:
		return fmt.Errorf("repair: platter %d already retired", id)
	case Healthy, Suspect:
		if err := m.reg.Transition(id, Failed, "operator repair request"); err != nil {
			return err
		}
	}
	if !m.enqueueRebuild(id) {
		return fmt.Errorf("repair: platter %d rebuild already queued", id)
	}
	return nil
}

// hasRebuildSource reports whether the platter belongs to a completed
// platter-set — the only redundancy a rebuild can draw on.
func (m *Manager) hasRebuildSource(id media.PlatterID) bool {
	for _, p := range m.tgt.ListPlatters() {
		if p.ID == id {
			return p.Set >= 0
		}
	}
	return false
}

// enqueueRebuild adds a platter to the rebuild queue once; reports
// whether it was newly queued.
func (m *Manager) enqueueRebuild(id media.PlatterID) bool {
	m.mu.Lock()
	if m.queued[id] {
		m.mu.Unlock()
		return false
	}
	m.queued[id] = true
	m.mu.Unlock()
	select {
	case m.rebuildq <- id:
		return true
	default:
		// Queue full; drop the marker so the scrub loop re-detects the
		// failed platter and retries once the queue drains.
		m.mu.Lock()
		delete(m.queued, id)
		m.mu.Unlock()
		return false
	}
}

func (m *Manager) dequeued(id media.PlatterID) {
	m.mu.Lock()
	delete(m.queued, id)
	m.mu.Unlock()
}

// scrubLoop walks published platters, one scrub pick per interval,
// yielding whenever the gate closes (foreground traffic has priority).
func (m *Manager) scrubLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.ScrubInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
		}
		if !m.gate() {
			m.om.scrubSkips.Inc()
			continue
		}
		m.scrubOnce()
	}
}

// scrubOnce picks the most deserving platter and scrubs it:
// failed platters are (re)queued for rebuild — the scrubber is the
// component that *notices* failures, however they were injected —
// then suspects and platters with degraded-read reports, then a
// round-robin sweep of the rest.
func (m *Manager) scrubOnce() {
	platters := m.tgt.ListPlatters()
	if len(platters) == 0 {
		return
	}
	var pick *PlatterSummary
	var pickRec *Record
	for i := range platters {
		rec, ok := m.reg.Get(platters[i].ID)
		if !ok {
			continue
		}
		switch rec.Health() {
		case Failed:
			// Only queue platters that have a completed set to rebuild
			// from; anything else would spin on an impossible rebuild.
			if m.cfg.AutoRebuild && platters[i].Set >= 0 {
				m.enqueueRebuild(platters[i].ID)
			}
		case Rebuilding, Retired:
			// Nothing to sample.
		case Suspect:
			if pick == nil || pickRec.Health() != Suspect {
				pick, pickRec = &platters[i], rec
			}
		case Healthy:
			if pick == nil && rec.reportsSinceScrub() > 0 {
				pick, pickRec = &platters[i], rec
			}
		}
	}
	if pick == nil {
		// Round-robin over available platters.
		for range platters {
			cand := &platters[m.cursor%len(platters)]
			m.cursor++
			rec, ok := m.reg.Get(cand.ID)
			if ok && !rec.Unavailable() {
				pick, pickRec = cand, rec
				break
			}
		}
	}
	if pick == nil {
		return
	}
	rep, err := m.tgt.ScrubPlatter(pick.ID, m.cfg.SampleTracks)
	if err != nil {
		return
	}
	m.om.scrubs.Inc()
	if rep.SectorsSampled > 0 {
		m.om.margin.Observe(rep.MinMargin)
	}
	reports := pickRec.reportsSinceScrub()
	m.reg.RecordScrub(pick.ID, rep)
	m.applyScrub(pick.ID, pickRec, rep, reports)
}

// applyScrub escalates or clears health from one scrub result.
func (m *Manager) applyScrub(id media.PlatterID, rec *Record, rep ScrubReport, reports int64) {
	switch {
	case rep.Unavailable:
		// Lost between pick and scrub; the next pass queues the rebuild.
		if rec.Health() == Healthy || rec.Health() == Suspect {
			m.reg.Transition(id, Failed, "scrub: platter unreachable")
		}
	case rep.TracksBeyondRepair > 0 && rep.TracksBeyondRepair*2 >= rep.TracksSampled:
		// The majority of sampled tracks survive only through higher
		// coding tiers: treat the medium as failed and rebuild.
		m.reg.Transition(id, Failed, fmt.Sprintf(
			"scrub: %d/%d sampled tracks beyond within-track repair",
			rep.TracksBeyondRepair, rep.TracksSampled))
		if m.cfg.AutoRebuild {
			m.enqueueRebuild(id)
		}
	case rep.TracksBeyondRepair > 0:
		m.reg.Transition(id, Suspect, fmt.Sprintf(
			"scrub: track with %d failed sectors beyond repair", rep.WorstTrackFailures))
	case rep.SectorsSampled > 0 && rep.MinMargin < m.cfg.SuspectMargin:
		m.reg.Transition(id, Suspect, fmt.Sprintf(
			"scrub: min decode margin %.3f below %.3f", rep.MinMargin, m.cfg.SuspectMargin))
	case reports >= m.cfg.SuspectReports:
		m.reg.Transition(id, Suspect, fmt.Sprintf(
			"%d degraded reads since last scrub", reports))
	default:
		if rec.Health() == Suspect {
			m.reg.Transition(id, Healthy, "scrub clean")
		}
	}
}

// rebuildLoop drains the rebuild queue, one platter at a time (rebuild
// serializes against flushes inside the service anyway), waiting for
// the gate so reconstruction work never competes with foreground
// traffic.
func (m *Manager) rebuildLoop() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stop:
			return
		case id := <-m.rebuildq:
			if !m.waitGate() {
				return
			}
			m.rebuildOne(id)
		}
	}
}

// waitGate blocks until the gate opens or the manager stops; reports
// false on stop.
func (m *Manager) waitGate() bool {
	for !m.gate() {
		select {
		case <-m.stop:
			return false
		case <-time.After(m.cfg.ScrubInterval):
		}
	}
	return true
}

// rebuildOne runs a single rebuild end to end, with health
// transitions: failed → rebuilding → retired (old platter) and a fresh
// healthy record for the replacement (registered by the service when
// it publishes). A failed attempt returns the platter to failed and
// retries after backoff.
func (m *Manager) rebuildOne(id media.PlatterID) {
	rec, ok := m.reg.Get(id)
	if !ok || rec.Health() != Failed {
		// Restored or retired while queued; nothing to do.
		m.dequeued(id)
		return
	}
	if err := m.reg.Transition(id, Rebuilding, "rebuild started"); err != nil {
		m.dequeued(id)
		return
	}
	m.rebuildsActive.Add(1)
	newID, err := m.tgt.RebuildPlatter(id)
	m.rebuildsActive.Add(-1)
	if err != nil {
		m.om.rebuildFail.Inc()
		m.reg.Transition(id, Failed, fmt.Sprintf("rebuild failed: %v", err))
		if errors.Is(err, ErrNoRebuildSource) {
			// Permanent: no platter-set means no redundancy to rebuild
			// from, ever. Leave the platter failed and do not retry.
			m.dequeued(id)
			return
		}
		// Retry after backoff unless we're shutting down. The queued
		// marker stays set so duplicate detections don't double-queue.
		go func() {
			select {
			case <-m.stop:
				m.dequeued(id)
			case <-time.After(m.cfg.RebuildBackoff):
				select {
				case m.rebuildq <- id:
				default:
					m.dequeued(id)
				}
			}
		}()
		return
	}
	m.om.rebuildDone.Inc()
	// The service retires the old record when it swaps the extent
	// mappings, so by now the transition history already ends with
	// rebuilding → retired naming newID.
	_ = newID
	m.dequeued(id)
}
