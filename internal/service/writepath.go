package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"silica/internal/backend"
	"silica/internal/faults"
	"silica/internal/layout"
	"silica/internal/media"
	"silica/internal/metadata"
	"silica/internal/obs"
	"silica/internal/persist"
	"silica/internal/sim"
	"silica/internal/staging"
)

// Flush drains the staging tier: batches staged files into platter
// plans, writes and verifies each platter, records extents, completes
// platter-sets with redundancy platters, and releases verified staged
// data. Files on a platter that fails verification stay staged and are
// re-batched on the next Flush (§5: "it can simply be kept in staging
// and rewritten onto a different platter later").
//
// Flushes are serialized among themselves but run concurrently with
// Put/Get/Delete: the platter index lock is held only to allocate ids
// and publish finished platters, never across encode or verify work.
//
// Within one batch the platter plans are independent (§3.1: sectors are
// encoded in isolation), so the codec engine burns and verifies them in
// parallel. Platter ids are allocated serially in plan order before the
// fan-out and results are published serially in plan order after it, so
// the platter index, set membership, and all media bytes are identical
// at any worker count.
func (s *Service) Flush() error {
	return s.FlushCtx(context.Background())
}

// FlushCtx is Flush recording trace spans (encode, burn, verify per
// platter; publish per batch) into the trace carried by ctx, and phase
// wall times into the silica_flush_phase_seconds histograms.
func (s *Service) FlushCtx(ctx context.Context) error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	noProgress, scrapRounds := 0, 0
	for {
		// Cancellation is honored between rounds: a canceled flush
		// leaves every unfinished file staged for the next pass, never
		// half-published.
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("service: flush canceled: %w", err)
		}
		if err := s.faults.Check(faults.OpFlushBatch, -1, -1, -1); err != nil {
			return err
		}
		batchDone := phaseTimer(s.om.phaseBatch)
		batch := s.tier.NextBatch(s.platterTargetBytes())
		if len(batch) == 0 {
			batchDone()
			return nil
		}
		// Files deleted while staged are dropped here: their pointers
		// are gone and their keys shredded, so writing them would only
		// burn glass on unreadable ciphertext.
		live := batch[:0]
		var dropped []*staging.File
		for _, f := range batch {
			v, err := s.meta.GetVersion(f.Key, f.Version)
			if err != nil || v.State == metadata.Deleted {
				dropped = append(dropped, f)
				continue
			}
			live = append(live, f)
		}
		if len(dropped) > 0 {
			if err := s.tier.Release(dropped); err != nil {
				return err
			}
		}
		batch = live
		batchDone()
		if len(batch) == 0 {
			continue // dropping released staging space: progress
		}
		plans := layout.AssignFiles(batch, s.cfg.Geom, s.effectiveShardCap())
		verified := make(map[string]bool) // fileID -> fully durable
		extents := make(map[string][]metadata.Extent)
		fileOf := make(map[string]*staging.File)
		byID := make(map[string]*staging.File, len(batch))
		for _, f := range batch {
			verified[stageID(f)] = true
			fileOf[stageID(f)] = f
			byID[stageID(f)] = f
		}

		// Phase 1 (serial): allocate platter ids in plan order.
		pend := make([]*pendingPlatter, len(plans))
		for i, plan := range plans {
			id := s.allocPlatterID()
			pend[i] = &pendingPlatter{plan: plan, id: id, rng: s.writeRNG(id)}
		}
		// Phase 2 (parallel): assemble, burn, and verify each plan's
		// platter. The platters are private until phase 3, so workers
		// touch no shared service state beyond the stats counters.
		var scrapped atomic.Int32 // platters lost to an injected write-drive fault
		if err := s.eng.ForEach(len(pend), func(i int) error {
			err := s.buildPlatter(ctx, pend[i], byID)
			if errors.Is(err, faults.ErrInjected) {
				scrapped.Add(1)
				return nil
			}
			return err
		}); err != nil {
			return err
		}
		// Phase 3 (serial, plan order): publish verified platters,
		// record extents, and complete platter-sets. A publish-phase
		// fault (or cancellation) before this point drops the private
		// platters entirely; their files stay staged and re-batch.
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("service: flush canceled before publish: %w", err)
		}
		if err := s.faults.Check(faults.OpFlushPublish, -1, -1, -1); err != nil {
			return err
		}
		publish := obs.StartSpan(ctx, "publish")
		publishDone := phaseTimer(s.om.phasePublish)
		faulted := 0
		for _, pd := range pend {
			if !pd.ok {
				faulted++
				// Verification failed: every file with a shard on this
				// platter stays staged.
				s.addStats(func(st *Stats) { st.PlattersFaulted++ })
				for _, e := range pd.plan.Entries {
					verified[fileID(e.Key, e.Version)] = false
				}
				continue
			}
			s.addStats(func(st *Stats) {
				st.PlattersWritten++
				st.BytesStored += int64(pd.plan.SectorsUsed) * int64(s.cfg.Geom.SectorPayloadBytes)
			})
			// Per-platter publish injection point: kill rules here model a
			// crash between individual platter publications mid-flush.
			if err := s.faults.Check(faults.OpPublishPlatter, int64(pd.id), -1, -1); err != nil {
				return err
			}
			s.publishPlatter(pd.id, pd.pi, "published")
			if err := s.addToSet(pd.id, pd.pi); err != nil {
				return err
			}
			for _, e := range pd.plan.Entries {
				fid := fileID(e.Key, e.Version)
				extents[fid] = append(extents[fid], metadata.Extent{
					Platter:     pd.id,
					FirstSector: e.FirstSector,
					SectorCount: e.SectorCount,
					Shard:       e.Shard,
				})
			}
		}
		var release []*staging.File
		for fid, ok := range verified {
			if !ok {
				continue
			}
			f := fileOf[fid]
			if err := s.meta.SetExtents(f.Key, f.Version, extents[fid]); err != nil {
				if errors.Is(err, metadata.ErrDeleted) {
					// Deleted mid-write: the platter copy is shredded
					// ciphertext; just free the staged bytes.
					release = append(release, f)
					if s.plog != nil {
						if _, err := s.plog.Append(&persist.RecRelease{
							Account: f.Key.Account, Name: f.Key.Name, Version: f.Version,
						}); err != nil {
							return err
						}
					}
					continue
				}
				return err
			}
			if s.plog != nil {
				if _, err := s.plog.Append(&persist.RecDurable{
					Account: f.Key.Account, Name: f.Key.Name,
					Version: f.Version, Extents: extents[fid],
				}); err != nil {
					return err
				}
			}
			release = append(release, f)
		}
		if err := s.tier.Release(release); err != nil {
			return err
		}
		if s.plog != nil {
			if err := s.plog.Sync(); err != nil {
				return err
			}
			if err := s.maybePersistSnapshot(); err != nil {
				return err
			}
		}
		publish.End()
		publishDone()
		if len(release) == 0 {
			// Nothing verified this round. Retry: the rewrite lands on
			// fresh platters whose scrambling decorrelates the voxel
			// patterns, so occasional verification faults clear. Give
			// up only when the channel is evidently hopeless. A round
			// lost wholly to injected write-drive faults is no evidence
			// about the channel; it has a bound of its own so a drive
			// that faults every burn cannot spin the flush.
			if int(scrapped.Load()) == faulted {
				scrapRounds++
			} else {
				noProgress++
			}
			if noProgress >= 3 {
				return fmt.Errorf("service: flush made no progress after %d rounds (channel too noisy?)", noProgress)
			}
			if scrapRounds >= maxScrapRounds {
				return fmt.Errorf("service: flush made no progress: write-drive faults scrapped every platter of %d rounds", scrapRounds)
			}
			continue
		}
		noProgress, scrapRounds = 0, 0
	}
}

// maxScrapRounds bounds consecutive flush rounds lost wholly to
// injected write-drive faults.
const maxScrapRounds = 8

// fileID names one (key, version) pair: the identity used for staged
// files, plan entries, and extent accumulation during a flush.
func fileID(key metadata.FileKey, version int) string {
	return fmt.Sprintf("%s#%d", key, version)
}

func stageID(f *staging.File) string {
	return fileID(f.Key, f.Version)
}

func (s *Service) platterTargetBytes() int64 {
	return s.cfg.Geom.PlatterUserBytes()
}

// allocPlatterID reserves the next platter id.
func (s *Service) allocPlatterID() media.PlatterID {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextPlatter
	s.nextPlatter++
	return id
}

// writeRNG derives the deterministic noise stream of one platter's
// write-and-verify pass.
func (s *Service) writeRNG(id media.PlatterID) *sim.RNG {
	return s.rootRNG.Fork(fmt.Sprintf("platter-%d", id))
}

// pendingPlatter is one plan's in-flight platter between id allocation
// and publication.
type pendingPlatter struct {
	plan *layout.PlatterPlan
	id   media.PlatterID
	rng  *sim.RNG
	pi   *platterInfo
	ok   bool // burned and verified
}

// buildPlatter pushes one plan through the write drive: modulate every
// sector into glass, then verify the whole platter through the read
// path (§3.1). On verification failure pd.ok stays false and the data
// stays staged. The platter is built privately and published to the
// index only after it verifies, so concurrent reads never observe
// partial media.
func (s *Service) buildPlatter(ctx context.Context, pd *pendingPlatter, byID map[string]*staging.File) error {
	geom := s.cfg.Geom
	plan := pd.plan
	p := media.NewPlatter(pd.id, geom)
	pi := &platterInfo{platter: p, set: -1}

	if err := ctx.Err(); err != nil {
		return fmt.Errorf("service: flush canceled before encode: %w", err)
	}
	encode := obs.StartSpan(ctx, "encode")
	encodeDone := phaseTimer(s.om.phaseEncode)
	// Assemble info-sector payloads in plan order.
	iPerTrack := geom.InfoSectorsPerTrack
	usedTracks := (plan.SectorsUsed + iPerTrack - 1) / iPerTrack
	payloads := make([][]byte, usedTracks*iPerTrack)
	for i := range payloads {
		payloads[i] = make([]byte, geom.SectorPayloadBytes)
	}
	for _, e := range plan.Entries {
		f := byID[fileID(e.Key, e.Version)]
		if f == nil {
			return fmt.Errorf("service: plan references unknown file %v#%d", e.Key, e.Version)
		}
		// Shard data offset: shards were cut in order, each
		// MaxShardSectors except the last.
		off := int64(0)
		for _, prev := range s.shardExtentsBefore(plan, e) {
			off += int64(prev) * int64(geom.SectorPayloadBytes)
		}
		for k := 0; k < e.SectorCount; k++ {
			dst := payloads[e.FirstSector+k]
			start := off + int64(k)*int64(geom.SectorPayloadBytes)
			if start < int64(len(f.Data)) {
				copy(dst, f.Data[start:])
			}
		}
	}
	pi.payloads = payloads
	pi.usedInfoSectors = plan.SectorsUsed
	encode.End()
	encodeDone()

	if err := ctx.Err(); err != nil {
		return fmt.Errorf("service: flush canceled before burn: %w", err)
	}
	burn := obs.StartSpan(ctx, "burn")
	burnDone := phaseTimer(s.om.phaseBurn)
	err := s.faults.Check(faults.OpFlushBurn, int64(pd.id), -1, -1)
	if err == nil {
		err = s.burnPlatter(pi, payloads)
	}
	if err != nil {
		burn.End()
		burnDone()
		if errors.Is(err, faults.ErrInjected) && p.State() == media.Writing {
			// An injected write-drive fault is a per-platter event, not
			// a pipeline failure: FlushCtx counts it and carries on, the
			// platter is scrapped (pd.ok stays false), its files stay
			// staged, and the next round burns them onto fresh glass. A
			// pre-burn fault leaves the platter Blank; only a started
			// burn can legally transition to Faulted.
			_ = p.Transition(media.Faulted)
		}
		return err
	}
	burn.End()
	burnDone()
	// Bill the burn's mechanical cost (write-drive occupancy under the
	// twin, arbitrated against foreground reads as ClassBurn traffic).
	if err := s.chargeMech(ctx, backend.Op{
		Kind:       backend.OpBurn,
		Platter:    pd.id,
		TrackCount: usedTracks,
		Bytes:      int64(plan.SectorsUsed) * int64(geom.SectorPayloadBytes),
	}); err != nil {
		return fmt.Errorf("service: flush canceled during burn: %w", err)
	}
	// Verification: full read-back through the real read path (§3.1).
	if err := p.Transition(media.Verifying); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("service: flush canceled before verify: %w", err)
	}
	verify := obs.StartSpan(ctx, "verify")
	verifyDone := phaseTimer(s.om.phaseVerify)
	ok := s.verifyPlatter(pi, usedTracks, pd.rng)
	if ok && s.faults.Check(faults.OpFlushVerify, int64(pd.id), -1, -1) != nil {
		ok = false // injected verification failure: files stay staged
	}
	verify.End()
	verifyDone()
	if !ok {
		return p.Transition(media.Faulted)
	}
	if err := p.Transition(media.Stored); err != nil {
		return err
	}
	pd.pi = pi
	pd.ok = true
	return nil
}

// publishPlatter registers the platter as healthy in the repair
// registry and makes it visible to readers.
func (s *Service) publishPlatter(id media.PlatterID, pi *platterInfo, reason string) {
	pi.rec = s.health.Register(id, reason)
	s.mu.Lock()
	s.platters[id] = pi
	s.mu.Unlock()
}

// burnPlatter writes payload sectors onto pi.platter through the full
// encode stack: information tracks with within-track redundancy, then
// large-group redundancy tracks over every group touched (member
// tracks past the payload are implicitly zero; a payload tail shorter
// than a track is zero-padded). The flush pipeline, the platter-set
// closer, and the rebuilder all burn media through this one helper, so
// every platter — fresh, redundancy, or replacement — shares a single
// layout.
//
// The per-track work (within-track NC encode, LDPC, modulation) is
// fanned across the codec engine; only the media map insert is
// serialized. Sector contents depend on nothing but (payload, platter
// id, address), so the burned platter is identical at any worker count.
func (s *Service) burnPlatter(pi *platterInfo, payloads [][]byte) error {
	geom := s.cfg.Geom
	p := pi.platter
	if err := p.Transition(media.Writing); err != nil {
		return err
	}
	iPerTrack := geom.InfoSectorsPerTrack
	usedTracks := (len(payloads) + iPerTrack - 1) / iPerTrack
	zero := make([]byte, geom.SectorPayloadBytes)
	sector := func(idx int) []byte {
		if idx < len(payloads) && payloads[idx] != nil {
			return payloads[idx]
		}
		return zero
	}
	var pmu sync.Mutex // serializes media sector inserts
	err := s.eng.ForEach(usedTracks, func(it int) error {
		cs := s.acquireScratch()
		defer s.releaseScratch(cs)
		info := make([][]byte, iPerTrack)
		for k := range info {
			info[k] = sector(it*iPerTrack + k)
		}
		red, err := s.withinTrack.EncodeRedundancy(info)
		if err != nil {
			return err
		}
		// Batch the whole track: scramble every sector, push the batch
		// through the word-packed encoder on one scratch, fault-check the
		// modulated symbols in sector order, then insert them under one
		// lock acquisition. An error-mode media.write fault now aborts
		// before any of the track's sectors land, which is equivalent to
		// the old per-sector interleaving: either way the platter is
		// scrapped and its files stay staged.
		phys := geom.InfoTrackPhysical(it)
		n := iPerTrack + len(red)
		for i, payload := range info {
			scrambleInto(cs.trackScr[i], payload, p.ID, phys, i)
		}
		for j, payload := range red {
			scrambleInto(cs.trackScr[iPerTrack+j], payload, p.ID, phys, iPerTrack+j)
		}
		t0 := time.Now()
		s.pipe.WriteSectorsInto(cs.sector, cs.trackScr[:n], cs.trackSym[:n])
		s.om.observeCodec(s.om.codecEncode, s.om.codecEncSectors, n, time.Since(t0))
		for i := 0; i < n; i++ {
			if err := s.faults.CheckData(faults.OpMediaWrite, int64(p.ID), phys, i, cs.trackSym[i]); err != nil {
				return err
			}
		}
		pmu.Lock()
		for i := 0; i < n; i++ {
			if err := p.WriteSector(media.SectorID{Track: phys, Sector: i}, cs.trackSym[i]); err != nil {
				pmu.Unlock()
				return err
			}
		}
		pmu.Unlock()
		s.addStats(func(st *Stats) {
			st.SectorsWritten += iPerTrack + len(red)
			st.RedundancyBytes += int64(len(red)) * int64(geom.SectorPayloadBytes)
		})
		return nil
	})
	if err != nil {
		return err
	}
	lgi := geom.LargeGroupInfoTracks
	numGroups := (usedTracks + lgi - 1) / lgi
	err = s.eng.ForEach(numGroups*iPerTrack, func(idx int) error {
		g, sPos := idx/iPerTrack, idx%iPerTrack
		cs := s.acquireScratch()
		defer s.releaseScratch(cs)
		members := make([][]byte, lgi)
		for m := 0; m < lgi; m++ {
			if it := g*lgi + m; it < usedTracks {
				members[m] = sector(it*iPerTrack + sPos)
			} else {
				members[m] = zero
			}
		}
		red, err := s.largeGroup.EncodeRedundancy(members)
		if err != nil {
			return err
		}
		for j, unit := range red {
			phys := geom.LargeGroupRedTrack(g, j)
			if err := s.writeSectorScrambled(cs, &pmu, p, media.SectorID{Track: phys, Sector: sPos}, unit); err != nil {
				return err
			}
		}
		s.addStats(func(st *Stats) {
			st.SectorsWritten += len(red)
			st.RedundancyBytes += int64(len(red)) * int64(geom.SectorPayloadBytes)
		})
		return nil
	})
	if err != nil {
		return err
	}
	return p.Transition(media.Written)
}

// effectiveShardCap is the shard size AssignFiles actually applies:
// the configured cap (or the layout default), bounded by a platter's
// information capacity.
func (s *Service) effectiveShardCap() int {
	geom := s.cfg.Geom
	cap := s.cfg.MaxShardSectors
	if cap < 1 {
		cap = geom.InfoSectorsPerTrack * 100
	}
	if platterInfo := geom.InfoTracksPerPlatter() * geom.InfoSectorsPerTrack; cap > platterInfo {
		cap = platterInfo
	}
	return cap
}

// shardExtentsBefore returns the sector counts of this file's earlier
// shards (on previous platters), to compute the data offset. Shards
// are cut at a fixed size, so every shard before the last spans
// exactly the shard cap.
func (s *Service) shardExtentsBefore(plan *layout.PlatterPlan, e layout.Placement) []int {
	out := make([]int, 0, e.Shard)
	for i := 0; i < e.Shard; i++ {
		out = append(out, s.effectiveShardCap())
	}
	return out
}

// scrambleInto XORs a payload with a pseudo-random stream keyed by the
// sector's physical address into dst, which must be at least as long as
// payload. Voxel error rates are data-dependent (inter-symbol
// interference follows the written pattern), so without scrambling a
// payload that fails verification would fail identically on every
// rewrite; the per-platter key decorrelates rewrites, exactly why
// production storage media scramble data before modulation. XOR is its
// own inverse, so the same call descrambles.
func scrambleInto(dst, payload []byte, platter media.PlatterID, track, sector int) []byte {
	seed := uint64(platter)*0x9e3779b97f4a7c15 ^ uint64(track)<<20 ^ uint64(sector)
	r := sim.NewRNG(seed)
	out := dst[:len(payload)]
	for i := 0; i < len(payload); i += 8 {
		w := r.Uint64()
		for j := 0; j < 8 && i+j < len(payload); j++ {
			out[i+j] = payload[i+j] ^ byte(w>>uint(8*j))
		}
	}
	return out
}

// writeSectorScrambled scrambles, modulates, and writes one sector
// using cs's buffers; pmu serializes the media insert. media.write
// faults land between modulation and the media insert: an error-mode
// rule fails the write (the platter is scrapped and its files stay
// staged), a partial-mode rule corrupts the modulated symbols so the
// damage is caught downstream by verification instead. The burn path's
// info tracks batch whole tracks instead; this singleton form serves
// the scattered large-group redundancy writes.
func (s *Service) writeSectorScrambled(cs *codecScratch, pmu *sync.Mutex, p *media.Platter, id media.SectorID, payload []byte) error {
	t0 := time.Now()
	symbols := s.pipe.WriteSectorWith(cs.sector, scrambleInto(cs.scramble, payload, p.ID, id.Track, id.Sector))
	s.om.observeCodec(s.om.codecEncode, s.om.codecEncSectors, 1, time.Since(t0))
	if err := s.faults.CheckData(faults.OpMediaWrite, int64(p.ID), id.Track, id.Sector, symbols); err != nil {
		return err
	}
	pmu.Lock()
	err := p.WriteSector(id, symbols) // copies symbols before returning
	pmu.Unlock()
	return err
}

// verifyPlatter reads back every written info track through the read
// channel and checks that each track is recoverable (at most R_t
// failed sectors). It records the worst LDPC margin observed —
// "together with the expected read error rate over time, we can
// determine whether to record a file as durably stored" (§5).
//
// Sectors are verified in parallel, one track-sized chunk per
// worker-visit so the codec scratch is acquired once per track instead
// of once per sector; each sector derives its noise stream from rng by
// (track, sector) index, so the outcome is independent of scheduling.
// The decode lands in the scratch's payload buffer (verification never
// keeps the plaintext), making the steady-state loop allocation-free.
// Per-track failure counts are reduced serially afterwards.
func (s *Service) verifyPlatter(pi *platterInfo, usedTracks int, rng *sim.RNG) bool {
	geom := s.cfg.Geom
	spt := geom.SectorsPerTrack()
	n := usedTracks * spt
	if n == 0 {
		return true
	}
	type sectorVerify struct {
		failed       bool
		decodeFailed bool
		margin       float64
	}
	results := make([]sectorVerify, n)
	_ = s.eng.ForEachChunk(n, spt, func(lo, hi int) error {
		cs := s.acquireScratch()
		defer s.releaseScratch(cs)
		for idx := lo; idx < hi; idx++ {
			it, sPos := idx/spt, idx%spt
			phys := geom.InfoTrackPhysical(it)
			symbols, ok := pi.platter.ReadSectorInto(media.SectorID{Track: phys, Sector: sPos}, cs.symbols)
			if !ok {
				results[idx].failed = true
				continue
			}
			t0 := time.Now()
			res := s.pipe.ReadSectorWithBuf(cs.sector, symbols, rng.ForkAt(uint64(phys), uint64(sPos)), cs.payload)
			s.om.observeCodec(s.om.codecDecode, s.om.codecDecSectors, 1, time.Since(t0))
			if !res.OK {
				results[idx] = sectorVerify{failed: true, decodeFailed: true}
				continue
			}
			results[idx].margin = res.Margin
		}
		return nil
	})
	decodeFailures := 0
	minMargin := math.Inf(1)
	recoverable := true
	for it := 0; it < usedTracks; it++ {
		failures := 0
		for sPos := 0; sPos < spt; sPos++ {
			r := results[it*spt+sPos]
			if r.failed {
				failures++
				if r.decodeFailed {
					decodeFailures++
				}
				continue
			}
			if r.margin < minMargin {
				minMargin = r.margin
			}
		}
		if failures > geom.RedundancySectorsPerTrack {
			recoverable = false
		}
	}
	s.addStats(func(st *Stats) {
		st.VerifyFailures += decodeFailures
		if minMargin < st.MinVerifyMargin {
			st.MinVerifyMargin = minMargin
		}
	})
	return recoverable
}

// addToSet accumulates verified information platters into the pending
// platter-set; when SetInfo platters are ready, SetRed redundancy
// platters are written and the set closes (§6). The redundancy encode
// and write — the heavy part — runs outside the index lock; the set
// only becomes visible to recovery reads once fully protected.
//
// Durability ordering: the platter's publish record is appended after
// its set position is assigned (the record carries it) and before the
// set-close work, so a crash anywhere in between recovers the platter
// into the pending set and re-closes it with fresh redundancy.
func (s *Service) addToSet(id media.PlatterID, pi *platterInfo) error {
	s.mu.Lock()
	pi.set = len(s.sets)
	pi.setPos = len(s.pendingSet)
	s.pendingSet = append(s.pendingSet, id)
	closing := len(s.pendingSet) >= s.cfg.SetInfo
	var members []media.PlatterID
	if closing {
		members = s.pendingSet
		s.pendingSet = nil
	}
	s.mu.Unlock()
	if err := s.persistPublish(id, pi, "published"); err != nil {
		return err
	}
	if !closing {
		return nil
	}
	return s.closeSet(members)
}

// closeSet writes the SetRed redundancy platters over the pending
// members and registers the completed set. Also invoked by crash
// recovery when the WAL replays a full pending set whose set-complete
// record never landed (its original redundancy platters were pruned as
// orphans).
func (s *Service) closeSet(members []media.PlatterID) error {
	infos := make([]*platterInfo, len(members))
	s.mu.RLock()
	for i, m := range members {
		infos[i] = s.platters[m]
	}
	s.mu.RUnlock()

	// Redundancy platters: sector (track t, pos p) of redundancy
	// platter r is the NC combination of members' (t, p) payloads.
	// The payload caches are flush-owned, so reading them unlocked is
	// safe: only this (flushMu-serialized) pipeline touches them.
	geom := s.cfg.Geom
	iPerTrack := geom.InfoSectorsPerTrack
	maxSectors := 0
	for _, mpi := range infos {
		if n := len(mpi.payloads); n > maxSectors {
			maxSectors = n
		}
	}
	zero := make([]byte, geom.SectorPayloadBytes)
	redPayloads := make([][][]byte, s.cfg.SetRed)
	for r := range redPayloads {
		redPayloads[r] = make([][]byte, maxSectors)
	}
	_ = s.eng.ForEach(maxSectors, func(sec int) error {
		units := make([][]byte, s.cfg.SetInfo)
		for mi, mpi := range infos {
			pls := mpi.payloads
			if sec < len(pls) {
				units[mi] = pls[sec]
			} else {
				units[mi] = zero
			}
		}
		red, err := s.setGroup.EncodeRedundancy(units)
		if err != nil {
			// Construction guarantees shapes; treat as programmer error.
			panic(err)
		}
		for r := range red {
			redPayloads[r][sec] = red[r]
		}
		return nil
	})
	setIdx := infos[0].set
	for r := 0; r < s.cfg.SetRed; r++ {
		rpi, rid, err := s.burnRedundancyPlatter(redPayloads[r], maxSectors, setIdx, s.cfg.SetInfo+r, iPerTrack)
		if err != nil {
			return err
		}
		if err := s.faults.Check(faults.OpPublishPlatter, int64(rid), -1, -1); err != nil {
			return err
		}
		s.publishPlatter(rid, rpi, "published (set redundancy)")
		if err := s.persistPublish(rid, rpi, "published (set redundancy)"); err != nil {
			return err
		}
		members = append(members, rid)
		s.addStats(func(st *Stats) {
			st.RedundancyPlatters++
			st.RedundancyBytes += int64(maxSectors) * int64(geom.SectorPayloadBytes)
		})
	}
	s.mu.Lock()
	s.sets = append(s.sets, members)
	// Payload caches can be dropped once the set is protected; keep
	// redundancy payloads too — they are small at tiny geometry and
	// recovery decodes from glass anyway.
	for _, m := range members {
		s.platters[m].payloads = nil
	}
	s.mu.Unlock()
	for pos, m := range members {
		s.health.SetPlacement(m, setIdx, pos, pos >= s.cfg.SetInfo)
	}
	if s.plog != nil {
		if _, err := s.plog.Append(&persist.RecSetComplete{Set: setIdx, Members: members}); err != nil {
			return err
		}
	}
	s.addStats(func(st *Stats) { st.SetsCompleted++ })
	return nil
}

// burnRedundancyPlatter writes one set-redundancy platter and verifies
// it by full read-back, exactly as an information platter is. A platter
// lost to an injected media-write fault, or one whose read-back finds a
// track beyond within-track repair, is scrapped (Faulted, counted in
// PlattersFaulted) and the same payloads are burned onto fresh glass
// with a fresh scramble seed; any other burn error is a shape bug and
// propagates.
func (s *Service) burnRedundancyPlatter(payloads [][]byte, maxSectors, setIdx, setPos, iPerTrack int) (*platterInfo, media.PlatterID, error) {
	const maxAttempts = 4
	geom := s.cfg.Geom
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		rid := s.allocPlatterID()
		rng := s.writeRNG(rid)
		rpi := &platterInfo{
			platter: media.NewPlatter(rid, geom), payloads: payloads,
			usedInfoSectors: maxSectors,
			set:             setIdx, setPos: setPos, isRedundancy: true,
		}
		err := s.burnPlatter(rpi, payloads)
		if err != nil && !errors.Is(err, faults.ErrInjected) {
			return nil, 0, err
		}
		if err == nil {
			usedTracks := (maxSectors + iPerTrack - 1) / iPerTrack
			_ = s.chargeMech(context.Background(), backend.Op{
				Kind:       backend.OpBurn,
				Platter:    rid,
				TrackCount: usedTracks,
				Bytes:      int64(maxSectors) * int64(geom.SectorPayloadBytes),
			})
			mustTransition(rpi.platter, media.Verifying)
			if s.verifyPlatter(rpi, usedTracks, rng) {
				mustTransition(rpi.platter, media.Stored)
				return rpi, rid, nil
			}
			err = fmt.Errorf("redundancy platter %d failed verification", rid)
		}
		mustTransition(rpi.platter, media.Faulted) // from Writing (injected fault) or Verifying
		s.addStats(func(st *Stats) { st.PlattersFaulted++ })
		lastErr = err
	}
	return nil, 0, fmt.Errorf("service: set redundancy burn failed after %d attempts: %w", maxAttempts, lastErr)
}

func mustTransition(p *media.Platter, st media.PlatterState) {
	if err := p.Transition(st); err != nil {
		panic(err)
	}
}
