package service

import (
	"context"
	"fmt"
	"sort"

	"silica/internal/media"
	"silica/internal/persist"
	"silica/internal/repair"
)

// persistFingerprint names the codec configuration a persistence
// directory was written under. Stored sectors only decode under the
// exact geometry, code shapes, and seed that produced them, so a
// directory opened under a different configuration must refuse. The
// network-coding scheme is always Cauchy, written scheme=0 as when it
// was a setting, so existing directories still open.
func (c Config) persistFingerprint() string {
	g := c.Geom
	return fmt.Sprintf("geom=%d/%d+%d/%d/%d+%d,ldpc=%d/%d,scheme=0,set=%d+%d,seed=%d",
		g.SectorPayloadBytes, g.InfoSectorsPerTrack, g.RedundancySectorsPerTrack,
		g.TracksPerPlatter, g.LargeGroupInfoTracks, g.LargeGroupRedTracks,
		c.LDPCBlock, c.LDPCData, c.SetInfo, c.SetRed, c.Seed)
}

// snapshotEvery is the WAL-append threshold between periodic snapshots.
func (s *Service) snapshotEvery() int64 {
	if s.cfg.PersistSnapshotEvery > 0 {
		return int64(s.cfg.PersistSnapshotEvery)
	}
	return 4096
}

// openPersist recovers cfg.PersistDir into the freshly built (still
// single-threaded) service and installs the durability hooks. Called
// by New before the service is returned to anyone.
func (s *Service) openPersist() error {
	plog, st, err := persist.Open(persist.Options{
		Dir:         s.cfg.PersistDir,
		Fingerprint: s.cfg.persistFingerprint(),
		Faults:      s.faults,
		Metrics:     s.reg,
	})
	if err != nil {
		return err
	}
	s.plog = plog
	if err := s.installState(st); err != nil {
		st.CloseBlobs()
		_ = plog.Close()
		return err
	}
	// Health transitions persist through the registry callback (fired
	// outside the registry mutex). Installed after installState so
	// restored history does not re-log itself.
	s.health.OnTransition(func(id media.PlatterID, tr repair.Transition) {
		from, _ := repair.ParseHealth(tr.From)
		to, _ := repair.ParseHealth(tr.To)
		if _, err := s.plog.Append(&persist.RecHealth{
			Platter: id, From: int32(from), To: int32(to),
			Reason: tr.Reason, AtUnixNano: tr.At.UnixNano(),
		}); err == nil {
			_ = s.plog.Sync()
		}
	})
	return nil
}

// installState loads a recovered State into the service's authorities.
// Every recovered platter's glass is its blob: recovery reads no glass
// into the heap, and a member of the open set, which has no payload
// cache, is read from its glass when its set closes.
func (s *Service) installState(st *persist.State) error {
	s.opSeq.Store(st.OpSeq)
	s.meta = st.Meta
	for id, key := range st.Keys {
		s.keys.Install(id, key)
	}
	for _, f := range st.Staged {
		s.tier.Restore(f)
	}
	for _, h := range st.Health {
		s.health.Restore(h.Platter, h.Health, h.History)
	}
	for _, p := range st.Platters {
		pi := &platterInfo{
			platter:         media.Recovered(p.ID, s.cfg.Geom, p.Blob),
			blob:            p.Blob,
			usedInfoSectors: p.Used,
			set:             p.Set,
			setPos:          p.SetPos,
			isRedundancy:    p.Redundancy,
		}
		rec, ok := s.health.Get(p.ID)
		if !ok {
			rec = s.health.Register(p.ID, "recovered (no health history)")
		}
		pi.rec = rec
		s.platters[p.ID] = pi
	}
	s.nextPlatter = st.NextPlatter
	s.sets = st.Sets
	s.pendingSet = st.PendingSet
	if err := s.reclosePendingSet(context.Background()); err != nil {
		return fmt.Errorf("service: recovery set close: %w", err)
	}
	return nil
}

// exportSnapshotData captures the four authorities. The caller holds
// flushMu, so the flush pipeline is quiescent; Put/Get/Delete continue,
// and any record racing this export lands past the snapshot's cut and
// replays over it (see persist.Log.BeginSnapshot).
func (s *Service) exportSnapshotData() *persist.SnapshotData {
	s.mu.RLock()
	descs := make([]persist.PlatterDesc, 0, len(s.platters))
	for id, pi := range s.platters {
		descs = append(descs, persist.PlatterDesc{
			ID: id, Set: pi.set, SetPos: pi.setPos,
			Redundancy: pi.isRedundancy, Used: pi.usedInfoSectors,
		})
	}
	sets := make([][]media.PlatterID, len(s.sets))
	for i, members := range s.sets {
		sets[i] = append([]media.PlatterID(nil), members...)
	}
	nextPlatter := s.nextPlatter
	s.mu.RUnlock()
	sort.Slice(descs, func(i, j int) bool { return descs[i].ID < descs[j].ID })

	hs := s.health.Snapshot()
	health := make([]persist.HealthDump, 0, len(hs.Platters))
	for _, ph := range hs.Platters {
		h, _ := repair.ParseHealth(ph.Health)
		health = append(health, persist.HealthDump{Platter: ph.Platter, Health: h, History: ph.History})
	}
	return &persist.SnapshotData{
		OpSeq:       s.opSeq.Load(),
		NextPlatter: nextPlatter,
		Meta:        s.meta.Export(),
		Keys:        s.keys.Export(),
		Staged:      s.tier.NextBatch(),
		Platters:    descs,
		Sets:        sets,
		PendingSet:  append([]media.PlatterID(nil), s.pendingSet...),
		Health:      health,
	}
}

// persistSnapshotLocked runs the rotate-first snapshot protocol; the
// caller holds flushMu (pendingSet is flush-owned state).
func (s *Service) persistSnapshotLocked() error {
	cut, err := s.plog.BeginSnapshot()
	if err != nil {
		return err
	}
	return s.plog.CommitSnapshot(cut, s.exportSnapshotData())
}

// maybePersistSnapshot snapshots when enough WAL has accumulated;
// caller holds flushMu.
func (s *Service) maybePersistSnapshot() error {
	if s.plog == nil || s.plog.AppendsSinceSnapshot() < s.snapshotEvery() {
		return nil
	}
	return s.persistSnapshotLocked()
}

// ClosePersist writes a final clean snapshot, closes the log, so the
// next start recovers without replaying, and closes every platter's
// blob descriptor: reads of durable data fail from then on.
// The snapshot is skipped when a crash point froze the log — the whole
// point of the freeze is that nothing after it becomes durable. No-op
// when persistence is disabled.
func (s *Service) ClosePersist() error {
	if s.plog == nil {
		return nil
	}
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	var firstErr error
	if !s.plog.Crashed() {
		firstErr = s.persistSnapshotLocked()
	}
	if err := s.plog.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	s.mu.RLock()
	for _, pi := range s.platters {
		if err := pi.blob.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.mu.RUnlock()
	return firstErr
}

// PersistLog exposes the persistence log (nil when disabled) — crash
// tests arm kill hooks against it.
func (s *Service) PersistLog() *persist.Log { return s.plog }
