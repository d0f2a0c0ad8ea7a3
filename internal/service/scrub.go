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
		set := pi.set
		if set >= len(s.sets) || s.sets[set][pi.setPos] != id {
			set = -1
		}
		out = append(out, repair.PlatterSummary{
			ID:          id,
			Set:         set,
			SetPos:      pi.setPos,
			Redundancy:  pi.isRedundancy,
			UsedSectors: pi.usedInfoSectors,
		})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
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
