package repair

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"silica/internal/media"
)

// ErrUnknownPlatter is returned for operations on unregistered platters.
var ErrUnknownPlatter = fmt.Errorf("repair: unknown platter")

// ErrNoRebuildSource marks a rebuild that can never succeed: the
// platter holds no position in a completed platter-set, so there is no
// redundancy to reconstruct it from. RequestRebuild refuses with it.
var ErrNoRebuildSource = fmt.Errorf("repair: no completed platter-set to rebuild from")

// Record is one platter's health entry. The health word is atomic so
// the read path can consult it per-sector without taking the registry
// lock; everything else is guarded by the registry mutex.
type Record struct {
	id     media.PlatterID
	health atomic.Int32

	// tierReports counts degraded reads served per recovery tier since
	// the platter was published; tierSinceScrub is the window since the
	// last scrub, which drives scrub prioritization.
	tierReports    [numTiers]atomic.Int64
	tierSinceScrub [numTiers]atomic.Int64

	// Guarded by the owning registry's mutex.
	history   []Transition
	lastScrub *ScrubReport
	scrubs    int
}

// Health returns the platter's current health (atomic; safe on the
// read path).
func (r *Record) Health() Health { return Health(r.health.Load()) }

// Unavailable reports whether reads of this platter must recover
// through its platter-set.
func (r *Record) Unavailable() bool { return r.Health().Unavailable() }

// ReportTier records that a degraded read of this platter was served
// by the given recovery tier. Lock-free: called from the read path.
func (r *Record) ReportTier(t Tier) {
	r.tierReports[t].Add(1)
	r.tierSinceScrub[t].Add(1)
}

// reportsSinceScrub sums the degraded-read reports accumulated since
// the last scrub pass.
func (r *Record) reportsSinceScrub() int64 {
	var n int64
	for i := range r.tierSinceScrub {
		n += r.tierSinceScrub[i].Load()
	}
	return n
}

// Registry is the platter health state machine. It keeps health,
// history, scrub state and recovery-tier counts, and nothing of where a
// platter sits: the service's set index is the one record of that. All
// transitions are validated and recorded per platter; the edge counts
// are read off those histories, so failure injection and repair
// progress are observable end to end.
type Registry struct {
	mu       sync.Mutex
	platters map[media.PlatterID]*Record
	now      func() time.Time
	// onTransition, when set, is invoked after every recorded edge,
	// outside the registry mutex — the durability layer appends a WAL
	// record there, and an append must never run under g.mu (a snapshot
	// exporting the registry while holding the log would deadlock).
	onTransition func(id media.PlatterID, tr Transition)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		platters: make(map[media.PlatterID]*Record),
		now:      time.Now,
	}
}

// Register adds a platter as Healthy and returns its record. Reason is
// recorded as the platter's birth entry (e.g. "published" or "rebuilt
// from set 3"). Registering an existing id returns its record.
func (g *Registry) Register(id media.PlatterID, reason string) *Record {
	g.mu.Lock()
	defer g.mu.Unlock()
	if r, ok := g.platters[id]; ok {
		return r
	}
	r := &Record{id: id}
	r.history = append(r.history, Transition{To: Healthy.String(), Reason: reason, At: g.now()})
	g.platters[id] = r
	return r
}

// Get returns a platter's record.
func (g *Registry) Get(id media.PlatterID) (*Record, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.platters[id]
	return r, ok
}

// OnTransition registers a callback fired after every recorded health
// edge, outside the registry mutex (it may do I/O, e.g. append a WAL
// record). Install before concurrent use; one callback is supported.
func (g *Registry) OnTransition(fn func(id media.PlatterID, tr Transition)) {
	g.mu.Lock()
	g.onTransition = fn
	g.mu.Unlock()
}

// Transition moves a platter to health `to`, recording the edge.
// Transitioning to the current state is a no-op. Illegal transitions
// (e.g. reviving a Retired platter) return an error and change
// nothing.
func (g *Registry) Transition(id media.PlatterID, to Health, reason string) error {
	g.mu.Lock()
	r, ok := g.platters[id]
	if !ok {
		g.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownPlatter, id)
	}
	from := Health(r.health.Load())
	if from == to {
		g.mu.Unlock()
		return nil
	}
	if !LegalTransition(from, to) {
		g.mu.Unlock()
		return fmt.Errorf("repair: platter %d: illegal transition %v -> %v", id, from, to)
	}
	tr := Transition{From: from.String(), To: to.String(), Reason: reason, At: g.now()}
	r.health.Store(int32(to))
	r.history = append(r.history, tr)
	fn := g.onTransition
	g.mu.Unlock()
	if fn != nil {
		fn(id, tr)
	}
	return nil
}

// Restore installs a platter record with the given health and history,
// replacing any existing record. Recovery-only: the callback is not
// fired (the state being installed came from the log).
func (g *Registry) Restore(id media.PlatterID, h Health, history []Transition) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := &Record{id: id}
	r.health.Store(int32(h))
	r.history = append([]Transition(nil), history...)
	g.platters[id] = r
}

// RecordScrub attaches the latest scrub result to a platter and resets
// its since-scrub degraded-read window.
func (g *Registry) RecordScrub(id media.PlatterID, rep ScrubReport) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.platters[id]
	if !ok {
		return
	}
	cp := rep
	r.lastScrub = &cp
	r.scrubs++
	for i := range r.tierSinceScrub {
		r.tierSinceScrub[i].Store(0)
	}
}

// TransitionTotal reports the number of health transitions recorded.
func (g *Registry) TransitionTotal() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	var n int64
	for _, r := range g.platters {
		for _, tr := range r.history {
			if tr.From != "" { // the birth entry is not an edge
				n++
			}
		}
	}
	return n
}

// Counts tallies platters per health state.
func (g *Registry) Counts() map[Health]int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[Health]int)
	for _, r := range g.platters {
		out[r.Health()]++
	}
	return out
}

// PlatterHealth is the externally visible health of one platter. The
// registry keeps no placement: Set, SetPos and Redundancy come from the
// service's set index (Service.HealthSnapshot), and Set is -1 while the
// platter holds no position in a completed set.
type PlatterHealth struct {
	Platter       media.PlatterID `json:"platter"`
	Health        string          `json:"health"`
	Set           int             `json:"set"`
	SetPos        int             `json:"set_pos"`
	Redundancy    bool            `json:"redundancy,omitempty"`
	SectorRepairs int64           `json:"sector_repairs"`
	TrackRebuilds int64           `json:"track_rebuilds"`
	SetRecoveries int64           `json:"set_recoveries"`
	Scrubs        int             `json:"scrubs"`
	LastScrub     *ScrubReport    `json:"last_scrub,omitempty"`
	History       []Transition    `json:"history"`
}

// Snapshot is the full registry state: the /v1/health/platters payload.
type Snapshot struct {
	Counts      map[string]int   `json:"counts"`
	Transitions map[string]int64 `json:"transitions"`
	Platters    []PlatterHealth  `json:"platters"`
}

// Snapshot captures every platter's health, history, and scrub state,
// each platter unplaced (Set -1).
func (g *Registry) Snapshot() Snapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	snap := Snapshot{
		Counts:      make(map[string]int),
		Transitions: make(map[string]int64),
	}
	for _, r := range g.platters {
		h := r.Health()
		snap.Counts[h.String()]++
		for _, tr := range r.history {
			if tr.From != "" {
				snap.Transitions[tr.From+"->"+tr.To]++
			}
		}
		ph := PlatterHealth{
			Platter:       r.id,
			Health:        h.String(),
			Set:           -1,
			SectorRepairs: r.tierReports[TierSector].Load(),
			TrackRebuilds: r.tierReports[TierTrack].Load(),
			SetRecoveries: r.tierReports[TierSet].Load(),
			Scrubs:        r.scrubs,
			History:       append([]Transition(nil), r.history...),
		}
		if r.lastScrub != nil {
			cp := *r.lastScrub
			ph.LastScrub = &cp
		}
		snap.Platters = append(snap.Platters, ph)
	}
	sort.Slice(snap.Platters, func(i, j int) bool {
		return snap.Platters[i].Platter < snap.Platters[j].Platter
	})
	return snap
}
