package service

import (
	"context"
	"fmt"
	"sync"

	"silica/internal/backend"
	"silica/internal/media"
	"silica/internal/repair"
)

// RebuildPlatter reconstructs a platter's full contents from its
// cross-platter platter-set (§5), writes a verified replacement
// through the normal write pipeline, and publishes it into the old
// platter's set position (see publish). In-flight reads never observe
// a half-rebuilt platter: a read that already resolved extents to the
// old id still finds its (retired) record and recovers through the
// set, while every new read resolves to the replacement.
//
// Works for information platters (reconstruct the platter's unit of
// the set code, remap its extents) and for set-redundancy platters
// (reconstruct all information units, re-encode the redundancy unit;
// no extents to remap). Returns the replacement platter's id.
func (s *Service) RebuildPlatter(old media.PlatterID) (media.PlatterID, error) {
	// Rebuild is a write of a platter's worth of media: serialize with
	// flushes so the write pipeline stays single-writer.
	s.flushMu.Lock()
	defer s.flushMu.Unlock()

	pi, ok := s.platterByID(old)
	if !ok {
		return -1, fmt.Errorf("service: unknown platter %d", old)
	}
	setIdx, setPos, infos := s.setSnapshot(pi, nil)
	if infos == nil || infos[setPos] != pi {
		return -1, fmt.Errorf("service: platter %d: %w", old, repair.ErrNoRebuildSource)
	}
	isRed, used := pi.isRedundancy, pi.usedInfoSectors
	newID := s.allocPlatterID()

	var sources []*platterInfo
	for pos, mpi := range infos {
		if pos != setPos && mpi != nil && !mpi.rec.Unavailable() {
			sources = append(sources, mpi)
		}
	}
	s.chargeMemberReads(sources)
	// Reconstruct the lost unit sector by sector across the codec engine:
	// each sector gathers SetInfo of the other members' matching sectors
	// and decodes the set code once. Every (member, sector) cell forks its
	// noise stream from its grid position, so the rebuilt platter is
	// identical at any worker count.
	decRNG := s.writeRNG(newID).Fork("member-decode")
	payloads := make([][]byte, used)
	if err := s.eng.ForEach(used, func(sec int) error {
		cs := s.acquireScratch()
		defer s.releaseScratch(cs)
		cs.ncUnits = s.setUnits(cs.ncUnits, infos, setPos, sec, nil)
		for pos := range cs.ncUnits {
			if cs.ncUnits[pos].pi != nil {
				cs.ncUnits[pos].rng = decRNG.ForkAt(uint64(pos), uint64(sec))
			}
		}
		avail := s.gatherUnits(cs, cs.ncUnits, s.cfg.SetInfo)
		if isRed {
			// Redundancy unit: rebuild the information vector, then
			// re-encode this platter's redundancy position.
			info, err := s.setGroup.ReconstructAll(avail)
			if err != nil {
				return fmt.Errorf("service: rebuild platter %d sector %d: %w", old, sec, err)
			}
			red, err := s.setGroup.EncodeRedundancy(info)
			if err != nil {
				return err
			}
			payloads[sec] = red[setPos-s.cfg.SetInfo]
		} else {
			payloads[sec] = make([]byte, s.cfg.Geom.SectorPayloadBytes)
			if err := s.setGroup.ReconstructInto(payloads[sec], avail, setPos); err != nil {
				return fmt.Errorf("service: rebuild platter %d sector %d: %w", old, sec, err)
			}
		}
		return nil
	}); err != nil {
		return -1, err
	}

	// Burn and verify the replacement exactly like a fresh platter
	// (§3.1: publish-after-verify); a scrapped replacement costs a
	// re-burn of the reconstructed payloads, not a second reconstruction.
	npi := &platterInfo{
		platter: media.NewPlatter(newID, s.cfg.Geom), usedInfoSectors: used,
		set: setIdx, setPos: setPos, isRedundancy: isRed,
	}
	if err := s.burnOnFreshGlass(context.Background(), npi, payloads); err != nil {
		return -1, fmt.Errorf("service: rebuild platter %d: %w", old, err)
	}

	// Publish the replacement, durable first; its visible half swaps it
	// into the set position, remaps the old platter's extents to it and
	// retires the old platter, as replay of its record does.
	// Readers resolve either the old id (unavailable → set recovery) or
	// the new one; never partial media. A failed publish changes nothing
	// and discards the replacement's blob.
	if err := s.publish(fmt.Sprintf("rebuilt (replaces platter %d)", old), npi); err != nil {
		npi.discardGlass()
		return -1, fmt.Errorf("service: rebuild platter %d: %w", old, err)
	}
	if s.plog != nil {
		if err := s.plog.Sync(); err != nil {
			return -1, err
		}
	}
	return npi.platter.ID, nil
}

// chargeMemberReads bills one rebuild read of each platter's used
// tracks, concurrently: the twin schedules them as ClassRebuild traffic
// across its drives, so repair competes realistically with foreground
// reads.
func (s *Service) chargeMemberReads(pis []*platterInfo) {
	var wg sync.WaitGroup
	for _, pi := range pis {
		tracks := max(s.usedTracks(pi), 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.chargeMech(context.Background(), backend.Op{
				Kind:       backend.OpRebuildRead,
				Platter:    pi.platter.ID,
				TrackCount: tracks,
				Bytes:      int64(tracks) * s.cfg.Geom.TrackRawBytes(),
			})
		}()
	}
	wg.Wait()
}
