package repair

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"silica/internal/media"
	"silica/internal/obs"
)

// rebuildTick is the pause between the rebuild loop's looks at the
// registry; a failed attempt is retried no sooner than the next one.
const rebuildTick = 100 * time.Millisecond

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
	// AutoRebuild rebuilds every failed member of a completed set; when
	// false, only those an operator requested (RequestRebuild, the
	// POST /v1/repair path).
	AutoRebuild bool
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

// Manager owns the scrub loop and the rebuild loop. Create with
// NewManager, start with Start, stop with Close. The health registry is
// the one record of what needs rebuilding: a failed platter that holds
// a position in a completed set.
type Manager struct {
	cfg  Config
	tgt  Target
	reg  *Registry
	gate func() bool

	stop chan struct{}
	wg   sync.WaitGroup

	// requested holds the platters an operator asked to rebuild, the
	// ones owed when AutoRebuild is off.
	mu        sync.Mutex
	requested map[media.PlatterID]bool

	cursor         int // scrub loop only
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
	if gate == nil {
		gate = func() bool { return true }
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	m := &Manager{
		cfg:       cfg,
		tgt:       tgt,
		reg:       reg,
		gate:      gate,
		stop:      make(chan struct{}),
		requested: make(map[media.PlatterID]bool),
	}
	m.om = newManagerMetrics(cfg.Metrics, m)
	return m
}

// Start hands back every rebuild no process owns, then launches the
// scrub and rebuild loops. A platter recovered as rebuilding was cut
// off before its replacement's publish record, which retires it on
// replay too: it is failed again, and owed the rebuild.
func (m *Manager) Start() {
	for _, p := range m.tgt.ListPlatters() {
		if rec, ok := m.reg.Get(p.ID); ok && rec.Health() == Rebuilding {
			_ = m.reg.Transition(p.ID, Failed, "rebuild interrupted by a restart")
		}
	}
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
	_, queued := m.owed(-1)
	return ManagerStats{
		Scrubs:         m.om.scrubs.Value(),
		ScrubSkips:     m.om.scrubSkips.Value(),
		RebuildsDone:   m.om.rebuildDone.Value(),
		RebuildsFailed: m.om.rebuildFail.Value(),
		RebuildsActive: m.rebuildsActive.Load(),
		RebuildsQueued: int64(queued),
	}
}

// RebuildsActive reports rebuilds currently running or owed; the
// gateway's healthz reports degraded while this is nonzero.
func (m *Manager) RebuildsActive() int64 {
	st := m.Stats()
	return st.RebuildsActive + st.RebuildsQueued
}

// RequestRebuild is the operator path (POST /v1/repair/{platter}): the
// platter is declared failed if it is still serving, and owed a rebuild
// from its set. A platter already owed or already rebuilding is
// accepted again. A platter with no position in a completed
// platter-set is rejected up front — failing it would lose data with
// no redundancy to rebuild from.
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
	m.mu.Lock()
	m.requested[id] = true
	m.mu.Unlock()
	return nil
}

// hasRebuildSource reports whether the platter holds a position in a
// completed platter-set — the only redundancy a rebuild can draw on.
func (m *Manager) hasRebuildSource(id media.PlatterID) bool {
	for _, p := range m.tgt.ListPlatters() {
		if p.ID == id {
			return p.Set >= 0
		}
	}
	return false
}

// owed reads what repair owes off the registry: the failed platters
// holding a position in a completed set that the manager rebuilds (all
// of them under AutoRebuild, else the requested ones). It returns the
// lowest such id above after, wrapping to the lowest overall (-1 if
// none), and their number, and forgets requests for platters no longer
// failed or rebuilding.
func (m *Manager) owed(after media.PlatterID) (media.PlatterID, int) {
	platters := m.tgt.ListPlatters()
	first, next, n := media.PlatterID(-1), media.PlatterID(-1), 0
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range platters {
		rec, ok := m.reg.Get(p.ID)
		if !ok {
			continue
		}
		h := rec.Health()
		if h != Failed && h != Rebuilding {
			delete(m.requested, p.ID)
		}
		if h != Failed || p.Set < 0 || !(m.cfg.AutoRebuild || m.requested[p.ID]) {
			continue
		}
		n++
		if first < 0 || p.ID < first {
			first = p.ID
		}
		if p.ID > after && (next < 0 || p.ID < next) {
			next = p.ID
		}
	}
	if next < 0 {
		next = first
	}
	return next, n
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

// scrubOnce picks the most deserving platter and scrubs it: suspects
// and platters with degraded-read reports first, then a round-robin
// sweep of the rest. The scrubber only moves health — it is the
// component that *notices* failures — and the rebuild loop reads what
// it owes off the registry.
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
		case Failed, Rebuilding, Retired:
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
		// Lost between pick and scrub.
		if rec.Health() == Healthy || rec.Health() == Suspect {
			m.reg.Transition(id, Failed, "scrub: platter unreachable")
		}
	case rep.TracksBeyondRepair > 0 && rep.TracksBeyondRepair*2 >= rep.TracksSampled:
		// The majority of sampled tracks survive only through higher
		// coding tiers: treat the medium as failed and rebuild.
		m.reg.Transition(id, Failed, fmt.Sprintf(
			"scrub: %d/%d sampled tracks beyond within-track repair",
			rep.TracksBeyondRepair, rep.TracksSampled))
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

// rebuildLoop rebuilds one owed platter per tick while the gate is
// open, so reconstruction work never competes with foreground traffic
// (rebuild serializes against flushes inside the service anyway). It
// rotates through the owed platters by id, so one whose rebuild keeps
// failing never starves the failed members of other sets.
func (m *Manager) rebuildLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(rebuildTick)
	defer ticker.Stop()
	last := media.PlatterID(-1)
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
		}
		if !m.gate() {
			continue
		}
		if id, n := m.owed(last); n > 0 {
			m.rebuildOne(id)
			last = id
		}
	}
}

// rebuildOne runs a single rebuild end to end, with health
// transitions: failed → rebuilding → retired (old platter, retired by
// the service when it publishes the replacement) and a fresh healthy
// record for the replacement. A failed attempt returns the platter to
// failed, where a later tick finds it again.
func (m *Manager) rebuildOne(id media.PlatterID) {
	if err := m.reg.Transition(id, Rebuilding, "rebuild started"); err != nil {
		return // restored since owed read it
	}
	m.rebuildsActive.Add(1)
	_, err := m.tgt.RebuildPlatter(id)
	m.rebuildsActive.Add(-1)
	if err != nil {
		m.om.rebuildFail.Inc()
		m.reg.Transition(id, Failed, fmt.Sprintf("rebuild failed: %v", err))
		return
	}
	m.om.rebuildDone.Inc()
}
