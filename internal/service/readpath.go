package service

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"silica/internal/backend"
	"silica/internal/faults"
	"silica/internal/keystore"
	"silica/internal/layout"
	"silica/internal/media"
	"silica/internal/metadata"
	"silica/internal/obs"
	"silica/internal/repair"
	"silica/internal/sim"
)

// readRNG derives an independent noise stream for one read operation,
// so concurrent Gets never contend on (or corrupt) shared generator
// state.
func (s *Service) readRNG() *sim.RNG {
	return s.rootRNG.Fork(fmt.Sprintf("read-%d", s.opSeq.Add(1)))
}

// Get reads back the latest version of a file through the full §5
// recovery hierarchy and decrypts it. Staged (not yet flushed) files
// are served from the staging tier, as the online tier does in
// production. Get holds no service-wide lock across the decode, so
// reads of flushed extents proceed in parallel with staging writes
// and with each other.
func (s *Service) Get(account, name string) ([]byte, error) {
	return s.GetInto(context.Background(), account, name, nil)
}

// GetInto is Get under ctx, recording trace spans (decode, plus
// recovery-tier escalations) into the trace carried by ctx, if any. It
// decodes into dst's backing array when its capacity covers the
// version's whole sectors (a staged version's size) and allocates only
// otherwise. Either way the plaintext starts at index 0 of the returned
// slice's array, so a caller can pass the last reply's data[:0] back in.
func (s *Service) GetInto(ctx context.Context, account, name string, dst []byte) ([]byte, error) {
	key := metadata.FileKey{Account: account, Name: name}
	rng := s.readRNG()
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("service: get canceled: %w", err)
		}
		v, err := s.meta.Get(key)
		if err != nil {
			return nil, err
		}
		var ct []byte
		switch v.State {
		case metadata.Staged:
			f, ok := s.tier.Find(key, v.Version)
			if !ok {
				// Two benign races land here: a concurrent Flush just
				// promoted the version to durable, or a concurrent Put
				// has registered the version and is about to admit its
				// bytes. Re-reading metadata resolves both.
				if attempt < 64 {
					runtime.Gosched()
					continue
				}
				return nil, fmt.Errorf("service: %v v%d staged but not in tier", key, v.Version)
			}
			ct = f.Data // shared with staging: decrypted into dst below
			s.om.readsStaged.Inc()
		case metadata.Durable:
			decode := obs.StartSpan(ctx, "decode")
			ct, err = s.readExtents(ctx, v, rng, dst)
			decode.End()
			if err != nil {
				return nil, err
			}
			s.om.readsDurable.Inc()
		default:
			return nil, fmt.Errorf("service: %v in unexpected state %v", key, v.State)
		}
		ctLen := v.Size + keystore.Overhead
		if int64(len(ct)) < ctLen {
			return nil, fmt.Errorf("service: %v short read: %d < %d", key, len(ct), ctLen)
		}
		if v.State == metadata.Staged {
			return s.keys.DecryptInto(v.KeyID, dst, ct[:ctLen])
		}
		return s.keys.DecryptInPlace(v.KeyID, ct[:ctLen])
	}
}

// byShard orders extents by shard ordinal.
func byShard(a, b metadata.Extent) int { return cmp.Compare(a.Shard, b.Shard) }

// readExtents assembles a version's ciphertext from its shards in
// shard order, into dst's backing array when its capacity covers the
// whole sectors read. v.Extents is never written once stored (see
// metadata.Store.RemapPlatter), so it is read in place unless it is
// out of shard order.
func (s *Service) readExtents(ctx context.Context, v *metadata.Version, rng *sim.RNG, dst []byte) ([]byte, error) {
	extents := v.Extents
	if !slices.IsSortedFunc(extents, byShard) {
		extents = slices.Clone(extents)
		slices.SortFunc(extents, byShard)
	}
	sectors := 0
	for _, e := range extents {
		sectors += e.SectorCount
	}
	// Sized once; every sector is descrambled straight into its slot.
	size := s.cfg.Geom.SectorPayloadBytes
	out := dst[:0]
	if out == nil || cap(out) < sectors*size { // never nil: an empty file reads as empty
		out = make([]byte, sectors*size)
	}
	out = out[:sectors*size]
	off := 0
	for _, e := range extents {
		// Bill the extent's track span to the mechanical backend before
		// decoding it: under the twin this blocks for drive allocation,
		// shuttle travel, mount, seek and scan at the configured speedup.
		first, tracks := layout.SectorTracks(s.cfg.Geom, e.FirstSector, e.SectorCount)
		if err := s.chargeMech(ctx, backend.Op{
			Kind:       backend.OpRead,
			Platter:    e.Platter,
			StartTrack: first,
			TrackCount: tracks,
			Bytes:      int64(e.SectorCount) * int64(s.cfg.Geom.SectorPayloadBytes),
		}); err != nil {
			return nil, fmt.Errorf("shard %d: %w", e.Shard, err)
		}
		for k := 0; k < e.SectorCount; k++ {
			if err := s.readInfoSector(ctx, e.Platter, e.FirstSector+k, rng, out[off:off+size]); err != nil {
				return nil, fmt.Errorf("shard %d sector %d: %w", e.Shard, e.FirstSector+k, err)
			}
			off += size
		}
	}
	return out, nil
}

// readInfoSector reads one information sector's payload into dst,
// escalating through the recovery hierarchy:
//  1. direct LDPC decode of the sector;
//  2. within-track network coding over the sector's track;
//  3. large-group network coding across the platter's tracks;
//  4. cross-platter network coding over the platter-set.
func (s *Service) readInfoSector(ctx context.Context, id media.PlatterID, infoSector int, rng *sim.RNG, dst []byte) error {
	pi, ok := s.platterByID(id)
	if !ok {
		return fmt.Errorf("%w: platter %d unknown", ErrUnavailable, id)
	}
	if pi.rec.Unavailable() {
		// Level 4: the platter is unavailable; rebuild from its set.
		sp := obs.StartSpan(ctx, "recover_set")
		err := s.recoverFromSet(pi, infoSector, rng, dst)
		sp.End()
		if err != nil {
			return err
		}
		s.om.recSet.Inc()
		pi.rec.ReportTier(repair.TierSet)
		return nil
	}
	if !s.readOwnLevels(ctx, pi, infoSector, rng, dst) {
		return fmt.Errorf("%w: platter %d sector %d beyond all coding levels", ErrUnavailable, id, infoSector)
	}
	return nil
}

// readOwnLevels reads one information sector of pi into dst from pi's
// own glass, through levels 1–3 of the hierarchy: everything but the
// platter-set. It is also how a set close reads a member that has no
// payload cache.
func (s *Service) readOwnLevels(ctx context.Context, pi *platterInfo, infoSector int, rng *sim.RNG, dst []byte) bool {
	geom := s.cfg.Geom
	infoTrack, sPos := infoSector/geom.InfoSectorsPerTrack, infoSector%geom.InfoSectorsPerTrack
	phys := geom.InfoTrackPhysical(infoTrack)
	cs := s.acquireScratch()
	ok := s.decodeSectorWith(cs, pi, phys, sPos, rng, dst)
	s.releaseScratch(cs)
	if ok {
		return true
	}
	// Level 2: read the rest of the track, repair via within-track NC.
	sp := obs.StartSpan(ctx, "recover_sector")
	if s.repairWithinTrack(pi, phys, sPos, rng, dst) {
		sp.End()
		s.om.recSector.Inc()
		pi.rec.ReportTier(repair.TierSector)
		return true
	}
	sp.End()
	// Level 3: rebuild the whole track from its large group.
	sp = obs.StartSpan(ctx, "recover_track")
	ok = s.rebuildTrackSector(pi, infoTrack, sPos, rng, dst)
	sp.End()
	if ok {
		s.om.recTrack.Inc()
		pi.rec.ReportTier(repair.TierTrack)
	}
	return ok
}

// decodeSectorWith attempts a direct LDPC decode of one physical sector
// on caller-owned scratch, descrambling the payload (see scrambleInto in
// writepath.go) into dst. Published platter media is immutable, so no
// lock is held across the decode. Injected media.read faults land here,
// upstream of the decode, so every consumer — foreground reads,
// within-track repair, large-group rebuild, set recovery, and the
// rebuilder's member decode — sees the same failure surface and
// escalates through the normal hierarchy. The decode lands in the
// scratch's payload buffer, so the hot path allocates nothing.
func (s *Service) decodeSectorWith(cs *codecScratch, pi *platterInfo, physTrack, sPos int, rng *sim.RNG, dst []byte) bool {
	glass, ok := pi.platter.ReadSectorInto(media.SectorID{Track: physTrack, Sector: sPos}, cs.glass)
	if !ok {
		return false
	}
	if err := s.faults.CheckData(faults.OpMediaRead, int64(pi.platter.ID), physTrack, sPos, glass); err != nil {
		return false
	}
	t0 := time.Now()
	res := s.pipe.ReadSectorWithBuf(cs.sector, glass, rng, cs.payload)
	s.om.observeCodec(s.om.codecDecode, s.om.codecDecSectors, 1, time.Since(t0))
	if !res.OK {
		return false
	}
	scrambleInto(dst, res.Payload, pi.platter.ID, physTrack, sPos)
	return true
}

// ncUnit says where one unit of a network-coding group lives on glass.
type ncUnit struct {
	pi         *platterInfo // nil: unreadable (the position being recovered, an unavailable member)
	phys, sPos int
	zero       bool // beyond the written range: implicitly zero, costs no read
	repair     bool // the unit's track carries within-track redundancy to fall back on
	rng        *sim.RNG
}

// gatherUnits collects k units of one NC group, keyed by unit index, for
// Reconstruct: any k rebuild the rest (§5), so it reads no more. Pass 1
// direct-decodes units in Reconstruct's own preference order
// (information units ascending, then redundancy) and stops at k;
// implicit zeros count. Pass 2 runs the expensive fallback, a
// within-track repair, only for units that failed pass 1 and only while
// still short of k. The order is fixed by position, never by completion,
// so what is read, and every noise draw, is a function of the seed.
// The map and its units live on cs (zeros on s.zero): read-only, valid while cs is held.
func (s *Service) gatherUnits(cs *codecScratch, units []ncUnit, k int) map[int][]byte {
	avail := cs.avail
	clear(avail)
	var failed []int
	for idx, u := range units {
		if len(avail) == k {
			break
		}
		if u.zero {
			avail[idx] = s.zero
		} else if u.pi != nil {
			if s.decodeSectorWith(cs, u.pi, u.phys, u.sPos, u.rng, cs.units[idx]) {
				avail[idx] = cs.units[idx]
			} else if u.repair {
				failed = append(failed, idx)
			}
		}
	}
	for _, idx := range failed {
		if len(avail) == k {
			break
		}
		u := units[idx]
		if s.repairWithinTrack(u.pi, u.phys, u.sPos, u.rng, cs.units[idx]) {
			avail[idx] = cs.units[idx]
		}
	}
	return avail
}

// repairWithinTrack reconstructs sector position want of a track into
// dst via the within-track group from the track's other sectors: want
// just failed its own decode. Only when the rest of the track comes up
// short is want itself — a group of one — read once more: read noise is
// drawn afresh on every read, and that is the last means the track has.
func (s *Service) repairWithinTrack(pi *platterInfo, physTrack, want int, rng *sim.RNG, dst []byte) bool {
	units := make([]ncUnit, s.cfg.Geom.SectorsPerTrack())
	for sPos := range units {
		if sPos != want {
			units[sPos] = ncUnit{pi: pi, phys: physTrack, sPos: sPos, rng: rng}
		}
	}
	k := s.cfg.Geom.InfoSectorsPerTrack
	cs := s.acquireScratch()
	defer s.releaseScratch(cs)
	avail := s.gatherUnits(cs, units, k)
	if len(avail) < k {
		return s.decodeSectorWith(cs, pi, physTrack, want, rng, dst)
	}
	return s.withinTrack.ReconstructInto(dst, avail, want) == nil
}

// rebuildTrackSector reconstructs sector sPos of information track
// infoTrack from the platter's large group: the matching sector
// position of the other member tracks plus the group's redundancy
// tracks. Member tracks beyond the written range are zero; redundancy
// tracks carry no within-track redundancy of their own.
func (s *Service) rebuildTrackSector(pi *platterInfo, infoTrack, sPos int, rng *sim.RNG, dst []byte) bool {
	geom := s.cfg.Geom
	lgi := geom.LargeGroupInfoTracks
	g := infoTrack / lgi
	wantUnit := infoTrack % lgi
	usedTracks := (pi.usedInfoSectors + geom.InfoSectorsPerTrack - 1) / geom.InfoSectorsPerTrack
	units := make([]ncUnit, lgi+geom.LargeGroupRedTracks)
	for m := range units {
		switch it := g*lgi + m; {
		case m == wantUnit:
		case m >= lgi:
			units[m] = ncUnit{pi: pi, phys: geom.LargeGroupRedTrack(g, m-lgi), sPos: sPos, rng: rng}
		case it >= usedTracks:
			units[m] = ncUnit{zero: true}
		default:
			units[m] = ncUnit{pi: pi, phys: geom.InfoTrackPhysical(it), sPos: sPos, repair: true, rng: rng}
		}
	}
	cs := s.acquireScratch()
	defer s.releaseScratch(cs)
	return s.largeGroup.ReconstructInto(dst, s.gatherUnits(cs, units, lgi), wantUnit) == nil
}

// recoverFromSet rebuilds one information sector of an unavailable
// platter into dst from its platter-set: the matching sector of SetInfo
// other members (§5 cross-platter NC; §7.6's I reads per sector
// returned).
func (s *Service) recoverFromSet(pi *platterInfo, infoSector int, rng *sim.RNG, dst []byte) error {
	cs := s.acquireScratch()
	defer s.releaseScratch(cs)
	var setPos int
	if _, setPos, cs.set = s.setSnapshot(pi, cs.set); cs.set == nil {
		return fmt.Errorf("%w: platter %d has no completed platter-set", ErrUnavailable, pi.platter.ID)
	}
	cs.ncUnits = s.setUnits(cs.ncUnits, cs.set, setPos, infoSector, rng)
	if err := s.setGroup.ReconstructInto(dst, s.gatherUnits(cs, cs.ncUnits, s.cfg.SetInfo), setPos); err != nil {
		return fmt.Errorf("%w: set recovery failed: %v", ErrUnavailable, err)
	}
	return nil
}

// setSnapshot copies pi's place in its platter-set and the set's
// members' records (into infos[:0]) under the read lock — the platters
// themselves are immutable once published — or nil for no completed set.
func (s *Service) setSnapshot(pi *platterInfo, infos []*platterInfo) (setIdx, setPos int, _ []*platterInfo) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	setIdx, setPos = pi.set, pi.setPos
	if setIdx < 0 || setIdx >= len(s.sets) {
		return setIdx, setPos, nil
	}
	infos = infos[:0]
	for _, mid := range s.sets[setIdx] {
		infos = append(infos, s.platters[mid])
	}
	return setIdx, setPos, infos
}

// setUnits describes information sector infoSector of every member of a
// platter-set as an NC unit read with rng, in units[:0]. The member at
// setPos, the one being recovered, and unavailable members are
// unreadable; members shorter than the sector's track contribute zeros.
func (s *Service) setUnits(units []ncUnit, infos []*platterInfo, setPos, infoSector int, rng *sim.RNG) []ncUnit {
	geom := s.cfg.Geom
	iPerTrack := geom.InfoSectorsPerTrack
	infoTrack, sPos := infoSector/iPerTrack, infoSector%iPerTrack
	units = append(units[:0], make([]ncUnit, len(infos))...) // zeroed, reusing units' array
	for pos, mpi := range infos {
		switch {
		case pos == setPos || mpi == nil || mpi.rec.Unavailable():
		case infoTrack >= (mpi.usedInfoSectors+iPerTrack-1)/iPerTrack:
			units[pos] = ncUnit{zero: true}
		default:
			units[pos] = ncUnit{pi: mpi, phys: geom.InfoTrackPhysical(infoTrack), sPos: sPos, repair: true, rng: rng}
		}
	}
	return units
}
