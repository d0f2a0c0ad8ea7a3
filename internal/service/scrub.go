package service

import (
	"context"
	"fmt"
	"sort"

	"silica/internal/backend"
	"silica/internal/media"
	"silica/internal/repair"
)

// ListPlatters enumerates published platters for the repair manager,
// each with its set only while that completed set lists it (else -1).
func (s *Service) ListPlatters() []repair.PlatterSummary {
	s.mu.RLock()
	out := make([]repair.PlatterSummary, 0, len(s.platters))
	for id, pi := range s.platters {
		out = append(out, repair.PlatterSummary{
			ID:          id,
			Set:         s.placedSet(id, pi),
			SetPos:      pi.setPos,
			Redundancy:  pi.isRedundancy,
			UsedSectors: pi.usedInfoSectors,
		})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// placedSet is the completed set that lists platter id at pi's
// position, or -1: the set index is the one record of where a platter
// sits. The caller holds s.mu.
func (s *Service) placedSet(id media.PlatterID, pi *platterInfo) int {
	if pi.set < len(s.sets) && s.sets[pi.set][pi.setPos] == id {
		return pi.set
	}
	return -1
}

// HealthSnapshot is the health registry's snapshot, the
// /v1/health/platters payload, with each platter placed by ListPlatters'
// rule: at its set position while its completed set lists it there
// (so never a member a replacement displaced), else at set -1.
func (s *Service) HealthSnapshot() repair.Snapshot {
	snap := s.health.Snapshot()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := range snap.Platters {
		ph := &snap.Platters[i]
		if pi, ok := s.platters[ph.Platter]; ok && s.placedSet(ph.Platter, pi) >= 0 {
			ph.Set, ph.SetPos, ph.Redundancy = pi.set, pi.setPos, pi.isRedundancy
		}
	}
	return snap
}

// ScrubPlatter samples a platter's tracks through the real decode
// stack (voxel demodulation → LDPC), the §5 health check: raw and
// decoded error rates measured on the actual medium, no NC repair
// masking them. Successive passes rotate the sampled window so the
// whole platter is covered over time. maxTracks <= 0 samples every
// used track. Published media is immutable, so scrubbing holds no
// lock across decodes and runs concurrently with foreground reads.
func (s *Service) ScrubPlatter(id media.PlatterID, maxTracks int) (repair.ScrubReport, error) {
	rep := repair.ScrubReport{Platter: id, MinMargin: 1}
	pi, ok := s.platterByID(id)
	if !ok {
		return rep, fmt.Errorf("service: unknown platter %d", id)
	}
	if pi.rec.Unavailable() {
		rep.Unavailable = true
		return rep, nil
	}
	usedTracks := s.usedTracks(pi)
	if usedTracks == 0 {
		return rep, nil
	}
	if maxTracks <= 0 || maxTracks > usedTracks {
		maxTracks = usedTracks
	}
	start := int(pi.scrubCursor.Add(int64(maxTracks))-int64(maxTracks)) % usedTracks
	rng := s.rootRNG.Fork(fmt.Sprintf("scrub-%d-%d", id, s.opSeq.Add(1)))
	// Bill the sampled window to the mechanical backend as lowest-
	// priority scrub traffic; under the twin this waits behind every
	// foreground read and burn for the platter's drive time.
	_ = s.chargeMech(context.Background(), backend.Op{
		Kind:       backend.OpScrub,
		Platter:    id,
		StartTrack: start,
		TrackCount: maxTracks,
		Bytes:      int64(maxTracks) * s.cfg.Geom.TrackRawBytes(),
	})

	tally := s.readBack(pi, start, maxTracks, rng)
	rep.TracksSampled = maxTracks
	rep.SectorsSampled = tally.sampled
	rep.SectorFailures = tally.failed
	rep.WorstTrackFailures = tally.worstTrack
	rep.TracksBeyondRepair = tally.beyondRepair
	rep.MinMargin = min(rep.MinMargin, tally.minMargin)
	if ok := rep.SectorsSampled - rep.SectorFailures; ok > 0 {
		rep.MeanMargin = tally.marginSum / float64(ok)
	}
	s.om.scrubSectors.Add(int64(rep.SectorsSampled))
	s.om.scrubFailures.Add(int64(rep.SectorFailures))
	s.om.minScrubMargin.Min(rep.MinMargin)
	return rep, nil
}
