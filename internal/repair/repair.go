// Package repair is the self-healing layer of the Silica reproduction:
// platter health tracking, background scrubbing, and automated rebuild
// (paper §5, Table 1). The durability story of cross-platter
// platter-sets only holds if lost redundancy is restored before a
// second failure lands in the same set; this package closes that loop.
//
//   - Registry is the platter health state machine
//     (healthy → suspect → failed → rebuilding → retired), fed by
//     read-path recovery-tier reports, scrub results, and operator
//     actions. The storage service consults it on every degraded read
//     and routes failure injection through it, so health is observable
//     rather than a private atomic.
//   - Manager runs the background scrubber — sampling published
//     platters through the real decode stack and escalating platters
//     whose margins erode — and the rebuilder, which reconstructs a
//     failed platter's contents from its platter-set, writes a
//     verified replacement, and atomically swaps it into the extent
//     mappings. Both yield to foreground traffic through a caller-
//     provided gate.
//
// The package depends only on media identifiers; the storage service
// plugs in through the Target interface, so repair never imports
// service (service imports repair for the registry and report types).
package repair

import (
	"fmt"
	"time"

	"silica/internal/media"
)

// Health is a platter's position in the repair lifecycle.
type Health int32

const (
	// Healthy: verified and serving reads directly.
	Healthy Health = iota
	// Suspect: scrub margins eroded or degraded reads accumulated;
	// scrubbed with priority but still serving.
	Suspect
	// Failed: unavailable (injected failure, unreachable during scrub,
	// or operator-declared); reads recover through the platter-set.
	Failed
	// Rebuilding: a rebuild of this platter's contents is in progress.
	Rebuilding
	// Retired: replaced by a rebuilt platter or recycled; terminal.
	Retired
)

var healthNames = map[Health]string{
	Healthy: "healthy", Suspect: "suspect", Failed: "failed",
	Rebuilding: "rebuilding", Retired: "retired",
}

func (h Health) String() string {
	if n, ok := healthNames[h]; ok {
		return n
	}
	return fmt.Sprintf("health(%d)", int32(h))
}

// Unavailable reports whether a platter in this state can serve reads
// directly; unavailable platters are served through set recovery.
func (h Health) Unavailable() bool {
	return h == Failed || h == Rebuilding || h == Retired
}

// legalHealthTransitions encodes the repair lifecycle. Failed→Healthy
// is the operator restore path (simulated failures cleared);
// Failed→Retired covers direct service-level rebuilds that skip the
// manager's Rebuilding intermediate state.
var legalHealthTransitions = map[Health][]Health{
	Healthy:    {Suspect, Failed, Retired},
	Suspect:    {Healthy, Failed, Retired},
	Failed:     {Rebuilding, Healthy, Retired},
	Rebuilding: {Retired, Failed},
	Retired:    {},
}

// ParseHealth maps a health name (as produced by Health.String) back
// to its value; unknown names report ok=false.
func ParseHealth(name string) (Health, bool) {
	for h, n := range healthNames {
		if n == name {
			return h, true
		}
	}
	return 0, false
}

// LegalTransition reports whether from -> to is a legal health edge
// (from == to is the registry's no-op case and reports false). The
// persistence layer uses it to apply replayed transitions best-effort:
// a fuzzy snapshot can capture a state ahead of the WAL tail, making a
// replayed edge stale.
func LegalTransition(from, to Health) bool {
	for _, n := range legalHealthTransitions[from] {
		if n == to {
			return true
		}
	}
	return false
}

// Transition is one recorded health change.
type Transition struct {
	From   string    `json:"from"`
	To     string    `json:"to"`
	Reason string    `json:"reason"`
	At     time.Time `json:"at"`
}

// RebuiltAs is the reason a rebuilt platter's publish retires the
// member it displaces with, live and on WAL replay alike.
func RebuiltAs(id media.PlatterID, remapped int) string {
	return fmt.Sprintf("rebuilt as platter %d (%d extents remapped)", id, remapped)
}

// Tier identifies which §5 recovery level served a degraded read; the
// read path reports these so scrub prioritization has a real signal.
type Tier int

const (
	// TierSector: within-track NC repaired one sector.
	TierSector Tier = iota
	// TierTrack: large-group NC rebuilt a whole track.
	TierTrack
	// TierSet: cross-platter NC reconstructed the platter's data.
	TierSet
	numTiers = 3
)

func (t Tier) String() string {
	switch t {
	case TierSector:
		return "sector"
	case TierTrack:
		return "track"
	case TierSet:
		return "set"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// ScrubReport is the outcome of one scrub pass over a platter: a
// sample of its tracks decoded through the real voxel→LDPC stack.
type ScrubReport struct {
	Platter media.PlatterID `json:"platter"`
	// Unavailable: the platter could not be read at all (failed or
	// retired); the scrubber escalates straight to rebuild.
	Unavailable    bool `json:"unavailable,omitempty"`
	TracksSampled  int  `json:"tracks_sampled"`
	SectorsSampled int  `json:"sectors_sampled"`
	// SectorFailures counts sampled sectors that could not be read or
	// whose direct LDPC decode failed — the raw error signal before NC
	// repair.
	SectorFailures int `json:"sector_failures"`
	// TracksBeyondRepair counts sampled tracks with more failed sectors
	// than within-track redundancy can repair: data there survives only
	// through large-group or set recovery.
	TracksBeyondRepair int     `json:"tracks_beyond_repair"`
	WorstTrackFailures int     `json:"worst_track_failures"`
	MinMargin          float64 `json:"min_margin"`
	MeanMargin         float64 `json:"mean_margin"`
}

// PlatterSummary is the scrubber's view of one published platter.
type PlatterSummary struct {
	ID          media.PlatterID
	Set         int // completed-set index, -1 unless that set lists the platter at SetPos
	SetPos      int
	Redundancy  bool
	UsedSectors int
}

// Target is the storage service surface the scrubber and rebuilder
// drive. *service.Service implements it.
type Target interface {
	// ListPlatters enumerates published platters.
	ListPlatters() []PlatterSummary
	// ScrubPlatter samples up to maxTracks tracks of a platter through
	// the real decode stack (maxTracks <= 0 scrubs every used track).
	ScrubPlatter(id media.PlatterID, maxTracks int) (ScrubReport, error)
	// RebuildPlatter reconstructs a platter's contents from its
	// platter-set, writes a verified replacement, and atomically swaps
	// extent mappings to it. Returns the replacement's id.
	RebuildPlatter(id media.PlatterID) (media.PlatterID, error)
}
