package nc

import (
	"fmt"

	"silica/internal/stats"
)

// LevelParams fixes the group shape at one of the three coding levels.
type LevelParams struct {
	Name string
	I, R int
}

// Default level parameters from §5 and §6 of the paper.
var (
	// DefaultWithinTrack: I_t = 100 information sectors and R_t = 8
	// redundancy sectors per track — the "~8% redundancy overhead"
	// §6 pairs with a 1e-3 sector failure probability.
	DefaultWithinTrack = LevelParams{Name: "within-track", I: 100, R: 8}
	// DefaultLargeGroup: ~2% additional overhead across tracks (§6):
	// 100 information tracks protected by 2 redundancy tracks.
	DefaultLargeGroup = LevelParams{Name: "large-group", I: 100, R: 2}
	// DefaultPlatterSet: the paper's chosen MDU configuration, 16+3.
	DefaultPlatterSet = LevelParams{Name: "platter-set", I: 16, R: 3}
)

// Hierarchy bundles the three coding levels that protect a deployment.
type Hierarchy struct {
	WithinTrack *Group
	LargeGroup  *Group
	PlatterSet  *Group
}

// NewHierarchy builds all three levels with the given scheme.
func NewHierarchy(scheme Scheme, seed uint64) (*Hierarchy, error) {
	return NewHierarchyWithParams(DefaultWithinTrack, DefaultLargeGroup, DefaultPlatterSet, scheme, seed)
}

// NewHierarchyWithParams builds the three levels with explicit shapes.
func NewHierarchyWithParams(track, large, platter LevelParams, scheme Scheme, seed uint64) (*Hierarchy, error) {
	wt, err := NewGroup(track.I, track.R, scheme, seed^0x1)
	if err != nil {
		return nil, fmt.Errorf("within-track: %w", err)
	}
	lg, err := NewGroup(large.I, large.R, scheme, seed^0x2)
	if err != nil {
		return nil, fmt.Errorf("large-group: %w", err)
	}
	ps, err := NewGroup(platter.I, platter.R, scheme, seed^0x3)
	if err != nil {
		return nil, fmt.Errorf("platter-set: %w", err)
	}
	return &Hierarchy{WithinTrack: wt, LargeGroup: lg, PlatterSet: ps}, nil
}

// TotalInPlatterOverhead reports the combined within-platter redundancy
// overhead (within-track plus large-group), e.g. ~10% for 8% + 2%.
func (h *Hierarchy) TotalInPlatterOverhead() float64 {
	return h.WithinTrack.Overhead() + h.LargeGroup.Overhead()
}

// TrackDecodeFailureProb computes the probability of failing to decode
// a whole track (§6): the track fails only when more than R of its I+R
// sectors fail LDPC, each independently with probability sectorFailP.
func TrackDecodeFailureProb(p LevelParams, sectorFailP float64) float64 {
	return stats.BinomialTail(p.I+p.R, p.R, sectorFailP)
}

// GroupLossProb computes the probability a group is unrecoverable when
// each unit is independently lost with probability unitLossP — the
// binomial argument of §5 that group loss probability "falls rapidly
// with the size of the group".
func GroupLossProb(p LevelParams, unitLossP float64) float64 {
	return stats.BinomialTail(p.I+p.R, p.R, unitLossP)
}
