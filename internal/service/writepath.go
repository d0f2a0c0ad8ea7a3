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
	"silica/internal/repair"
	"silica/internal/sim"
	"silica/internal/staging"
)

// Flush drains the staging tier: each round plans the whole staged
// backlog into platter plans at once, writes and verifies each platter,
// records extents, completes platter-sets with redundancy platters, and
// releases verified staged data. Planning everything in one pass is what
// fills platters: glass is WORM, so a platter is burned once, and only
// the last plan of a round — the tail of the backlog — can be partial.
// Files on a platter that fails verification stay staged and the next
// round re-plans them (§5: "it can simply be kept in staging and
// rewritten onto a different platter later").
//
// Flushes are serialized among themselves but run concurrently with
// Put/Get/Delete: the platter index lock is held only to allocate ids
// and publish finished platters, never across encode or verify work.
//
// The platter plans of a round are independent (§3.1: sectors are
// encoded in isolation), so the codec engine burns and verifies them in
// parallel. Platter ids are allocated serially in plan order before the
// fan-out and results are published serially in plan order after it, so
// the platter index, set membership, and all media bytes are identical
// at any worker count.
func (s *Service) Flush() error {
	return s.FlushCtx(context.Background())
}

// FlushCtx is Flush recording trace spans (encode, burn, verify per
// platter; publish per round) into the trace carried by ctx, and phase
// wall times into the silica_flush_phase_seconds histograms.
func (s *Service) FlushCtx(ctx context.Context) error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	// A set whose close failed in an earlier flush is still pending and
	// full: protect it before anything joins the next one.
	if err := s.reclosePendingSet(ctx); err != nil {
		return err
	}
	noProgress, scrapRounds := 0, 0
	// A round's platters that are not published yet: a flush that
	// returns early drops them, and the blobs of those burned with them.
	var unpublished []*pendingPlatter
	defer func() {
		for _, pd := range unpublished {
			if pd.pi != nil {
				pd.pi.discardGlass()
			}
		}
	}()
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
		batch := s.tier.NextBatch()
		if len(batch) == 0 {
			batchDone()
			return nil
		}
		// Files no longer staged are dropped here: one deleted while
		// staged has its pointers gone and its key shredded, so writing it
		// would only burn glass on unreadable ciphertext, and one that a
		// failed round recorded durable is on glass already.
		live := batch[:0]
		var dropped []*staging.File
		for _, f := range batch {
			v, err := s.meta.GetVersion(f.Key, f.Version)
			if err != nil || v.State != metadata.Staged {
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
		scrappedFile := make(map[staging.ID]bool) // a shard sits on a scrapped platter
		extents := make(map[staging.ID][]metadata.Extent, len(batch))
		byID := make(map[staging.ID]*staging.File, len(batch))
		for _, f := range batch {
			byID[f.ID()] = f
		}

		// Phase 1 (serial): allocate platter ids in plan order.
		pend := make([]*pendingPlatter, len(plans))
		for i, plan := range plans {
			id := s.allocPlatterID()
			pend[i] = &pendingPlatter{plan: plan, id: id}
		}
		unpublished = pend
		// Phase 2 (parallel): assemble, burn, and verify each plan's
		// platter. The platters are private until phase 3, so workers
		// touch no shared service state beyond the stats counters.
		var scrapped atomic.Int32 // platters lost to an injected write-drive fault
		if err := s.eng.ForEach(len(pend), func(i int) error {
			err := s.buildPlatter(ctx, pend[i], byID)
			if errors.Is(err, errScrapped) {
				// A scrapped platter is a per-platter event, not a pipeline
				// failure: pd.pi stays nil, its files stay staged, and the
				// next round burns them onto fresh glass.
				if errors.Is(err, faults.ErrInjected) {
					scrapped.Add(1)
				}
				return nil
			}
			return err
		}); err != nil {
			return err
		}
		// Phase 3 (serial, plan order): publish verified platters,
		// record extents, and complete platter-sets. A publish-phase
		// fault (or cancellation) before this point drops the private
		// platters entirely, their blobs with them; their files stay
		// staged and are planned again.
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("service: flush canceled before publish: %w", err)
		}
		if err := s.faults.Check(faults.OpFlushPublish, -1, -1, -1); err != nil {
			return err
		}
		publish := obs.StartSpan(ctx, "publish")
		publishStart := time.Now()
		var setWork time.Duration // set-close encode, burn and verify: phases of their own
		faulted := 0
		for i, pd := range pend {
			if pd.pi == nil {
				faulted++
				// Scrapped: every file with a shard on this platter stays
				// staged.
				for _, e := range pd.plan.Entries {
					scrappedFile[e.FileID()] = true
				}
				continue
			}
			if err := s.publish("published", pd.pi); err != nil {
				return err
			}
			unpublished = pend[i+1:]
			if len(s.pendingSet) == s.cfg.SetInfo {
				d, err := s.closeSet(ctx)
				if err != nil {
					return err
				}
				setWork += d
			}
			for _, e := range pd.plan.Entries {
				fid := e.FileID()
				extents[fid] = append(extents[fid], metadata.Extent{
					Platter:     pd.id,
					FirstSector: e.FirstSector,
					SectorCount: e.SectorCount,
					Shard:       e.Shard,
				})
			}
		}
		unpublished = nil
		var release []*staging.File
		for _, f := range batch {
			fid := f.ID()
			if scrappedFile[fid] {
				continue
			}
			if s.plog != nil {
				if _, err := s.plog.Append(&persist.RecDurable{
					Account: f.Key.Account, Name: f.Key.Name,
					Version: f.Version, Extents: extents[fid],
				}); err != nil {
					return err
				}
			}
			if err := s.meta.SetExtents(f.Key, f.Version, extents[fid]); err != nil {
				if !errors.Is(err, metadata.ErrDeleted) {
					return err
				}
				// Deleted mid-write: the platter copy is shredded ciphertext;
				// just free the staged bytes, as replay of the RecDurable does.
				if s.plog != nil {
					if _, err := s.plog.Append(&persist.RecRelease{
						Account: f.Key.Account, Name: f.Key.Name, Version: f.Version,
					}); err != nil {
						return err
					}
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
		s.om.phasePublish.Observe((time.Since(publishStart) - setWork).Seconds())
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

// usedTracks is the number of information tracks pi's payload occupies.
func (s *Service) usedTracks(pi *platterInfo) int {
	iPerTrack := s.cfg.Geom.InfoSectorsPerTrack
	return (pi.usedInfoSectors + iPerTrack - 1) / iPerTrack
}

// pendingPlatter is one plan's in-flight platter between id allocation
// and publication.
type pendingPlatter struct {
	plan *layout.PlatterPlan
	id   media.PlatterID
	pi   *platterInfo // set once burned and verified
}

// buildPlatter assembles one plan's info-sector payloads and pushes
// them through the write pipeline. A scrapped platter leaves pd.pi nil
// and the data staged. The platter is built privately and published to
// the index only after it verifies, so concurrent reads never observe
// partial media.
func (s *Service) buildPlatter(ctx context.Context, pd *pendingPlatter, byID map[staging.ID]*staging.File) error {
	geom := s.cfg.Geom
	plan := pd.plan
	pi := &platterInfo{platter: media.NewPlatter(pd.id, geom), usedInfoSectors: plan.SectorsUsed, set: -1}

	if err := ctx.Err(); err != nil {
		return fmt.Errorf("service: flush canceled before encode: %w", err)
	}
	encode := obs.StartSpan(ctx, "encode")
	encodeDone := phaseTimer(s.om.phaseEncode)
	// Assemble info-sector payloads in plan order, whole tracks. A full
	// sector is a capped view of the staged ciphertext, which is never
	// written after admission; only a file's partial last sector is
	// copied, zero-padded, and every other slot is the shared zero sector.
	size := int64(geom.SectorPayloadBytes)
	payloads := make([][]byte, s.usedTracks(pi)*geom.InfoSectorsPerTrack)
	for i := range payloads {
		payloads[i] = s.zero
	}
	for _, e := range plan.Entries {
		f := byID[e.FileID()]
		if f == nil {
			return fmt.Errorf("service: plan references unknown file %v#%d", e.Key, e.Version)
		}
		// Shards are cut in order at a fixed size, so every shard before
		// this one spans exactly the shard cap.
		off := int64(e.Shard) * int64(s.effectiveShardCap()) * size
		for k := 0; k < e.SectorCount; k++ {
			start := off + int64(k)*size
			switch end := start + size; {
			case end <= int64(len(f.Data)):
				payloads[e.FirstSector+k] = f.Data[start:end:end]
			case start < int64(len(f.Data)):
				tail := make([]byte, size)
				copy(tail, f.Data[start:])
				payloads[e.FirstSector+k] = tail
			}
		}
	}
	pi.payloads = payloads
	encode.End()
	encodeDone()

	if err := s.writeAndVerify(ctx, pi, payloads); err != nil {
		return err
	}
	pd.pi = pi
	return nil
}

// errScrapped marks a platter the write pipeline gave up on: it is
// Faulted and counted, and its payloads are still the caller's to burn
// again on fresh glass.
var errScrapped = errors.New("service: platter scrapped")

// writeAndVerify is the one write pipeline (§3.1, §5): burn the payloads
// onto pi's blank platter, bill the write drive, read the whole platter
// back through the real read path, and only then call it Stored. Every
// platter — information, set-redundancy, replacement — is written here
// and nowhere else. A platter lost to an injected write-drive fault
// (flush.burn, media.write), or whose read-back finds a track beyond
// within-track repair (or an injected flush.verify), is scrapped and the
// error wraps errScrapped; any other error is a pipeline failure.
// Cancellation is honored between stages. A platter that does not reach
// Stored leaves no glass behind.
func (s *Service) writeAndVerify(ctx context.Context, pi *platterInfo, payloads [][]byte) (err error) {
	defer func() {
		if err != nil {
			pi.discardGlass()
		}
	}()
	p := pi.platter
	// scrap counts the platter lost. A fault before the burn started
	// leaves the glass Blank; only a started burn can legally fault.
	scrap := func(cause error) error {
		if p.State() != media.Blank {
			if err := p.Transition(media.Faulted); err != nil {
				return err
			}
		}
		s.om.plattersFaulted.Inc()
		return fmt.Errorf("%w: %w", errScrapped, cause)
	}

	if err := ctx.Err(); err != nil {
		return fmt.Errorf("service: flush canceled before burn: %w", err)
	}
	burn := obs.StartSpan(ctx, "burn")
	burnDone := phaseTimer(s.om.phaseBurn)
	err = s.faults.Check(faults.OpFlushBurn, int64(p.ID), -1, -1)
	if err == nil {
		err = s.burnPlatter(pi, payloads)
	}
	burn.End()
	burnDone()
	if errors.Is(err, faults.ErrInjected) {
		return scrap(err)
	}
	if err != nil {
		return err
	}
	// Bill the burn's mechanical cost (write-drive occupancy under the
	// twin, arbitrated against foreground reads as ClassBurn traffic).
	if err := s.chargeMech(ctx, backend.Op{
		Kind:       backend.OpBurn,
		Platter:    p.ID,
		TrackCount: s.usedTracks(pi),
		Bytes:      int64(pi.usedInfoSectors) * int64(s.cfg.Geom.SectorPayloadBytes),
	}); err != nil {
		return fmt.Errorf("service: flush canceled during burn: %w", err)
	}
	if err := p.Transition(media.Verifying); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("service: flush canceled before verify: %w", err)
	}
	verify := obs.StartSpan(ctx, "verify")
	verifyDone := phaseTimer(s.om.phaseVerify)
	ok := s.verifyPlatter(pi, s.writeRNG(p.ID))
	if ok && s.faults.Check(faults.OpFlushVerify, int64(p.ID), -1, -1) != nil {
		ok = false // injected verification failure
	}
	verify.End()
	verifyDone()
	if !ok {
		return scrap(fmt.Errorf("platter %d failed verification", p.ID))
	}
	return p.Transition(media.Stored)
}

// burnOnFreshGlass takes payloads that must end up on glass (a set's
// redundancy unit, a rebuilt platter) through writeAndVerify, and when
// the platter is scrapped burns the same payloads again on a fresh id —
// and so a fresh scramble seed — at most maxAttempts times. On success
// pi.platter is the Stored platter. It runs to completion: only the
// trace in ctx is used, never its cancellation.
func (s *Service) burnOnFreshGlass(ctx context.Context, pi *platterInfo, payloads [][]byte) error {
	const maxAttempts = 4
	ctx = context.WithoutCancel(ctx)
	for attempt := 1; ; attempt++ {
		err := s.writeAndVerify(ctx, pi, payloads)
		if !errors.Is(err, errScrapped) {
			return err
		}
		if attempt == maxAttempts {
			return fmt.Errorf("service: burn failed after %d attempts: %w", maxAttempts, err)
		}
		pi.platter = media.NewPlatter(s.allocPlatterID(), s.cfg.Geom)
	}
}

// publish makes an information or rebuilt platter durable, and only then
// visible: a platter is read only once it is recorded, and recorded only
// once verified (§3.1). Durable is makeDurable, then its RecPublish
// (recovery depends on a record implying its blob); a fresh information
// platter first takes the next position of the pending set, which its
// record carries. On an error nothing is visible, and the caller
// discards the blob. Visible is show. The caller holds flushMu, which
// the pending set and set registry's writers hold.
func (s *Service) publish(reason string, pi *platterInfo) error {
	if err := s.makeDurable(pi); err != nil {
		return err
	}
	if pi.set < 0 {
		pi.set, pi.setPos = len(s.sets), len(s.pendingSet)
	}
	if s.plog != nil {
		if _, err := s.plog.Append(&persist.RecPublish{PlatterDesc: persist.PlatterDesc{
			ID: pi.platter.ID, Set: pi.set, SetPos: pi.setPos,
			Redundancy: pi.isRedundancy, Used: pi.usedInfoSectors,
		}, Reason: reason, AtUnixNano: time.Now().UnixNano()}); err != nil {
			return err
		}
	}
	s.show(reason, pi)
	return nil
}

// makeDurable is what precedes the record that publishes pi: the
// publish.platter fault point (kill rules there land between
// publications), then the blob's fsync, file and directory entry.
func (s *Service) makeDurable(pi *platterInfo) error {
	err := s.faults.Check(faults.OpPublishPlatter, int64(pi.platter.ID), -1, -1)
	if err == nil && s.plog != nil {
		err = s.plog.SyncPlatterBlob(pi.blob)
	}
	return err
}

// show makes a recorded platter visible: healthy in the registry, in
// the index, and in its place — the pending set for an information
// platter, its set's position for a rebuilt one, whose record is the
// whole rebuild: the member it displaces has its extents remapped to it
// and is retired, as replay does — and counted.
func (s *Service) show(reason string, pi *platterInfo) {
	id := pi.platter.ID
	pi.rec = s.health.Register(id, reason)
	s.mu.Lock()
	s.platters[id] = pi
	rebuilt := pi.set < len(s.sets)
	var old media.PlatterID
	switch {
	case rebuilt:
		old = s.sets[pi.set][pi.setPos]
		s.sets[pi.set][pi.setPos] = id
	case !pi.isRedundancy:
		s.pendingSet = append(s.pendingSet, id)
	}
	s.mu.Unlock()
	payload := int64(pi.usedInfoSectors) * int64(s.cfg.Geom.SectorPayloadBytes)
	switch {
	case rebuilt:
		remapped := s.meta.RemapPlatter(old, id)
		_ = s.health.Transition(old, repair.Retired, repair.RebuiltAs(id, remapped))
		s.om.plattersRebuilt.Inc()
	case pi.isRedundancy:
		s.om.plattersRedundancy.Inc()
		s.om.storedRedundancy.Add(payload)
	default:
		s.om.plattersWritten.Inc()
		s.om.storedUser.Add(payload)
	}
}

// burnTrack is one track a burn writes, its sectors 0 to n-1: a used
// information track whole (info is its index), or the information
// sectors of a large-group redundancy track (info is -1, and the track
// holds redundancy row red of large group group).
type burnTrack struct {
	phys, n    int
	info       int
	group, red int
}

// burnPlan lists every track a burn of used information tracks writes:
// each used information track with all of its sectors, then each
// large-group redundancy track over them with its information sectors
// (member tracks past the payload are implicitly zero). It is the one
// statement of which sectors a platter's glass holds: newGlass lays the
// blob out from it, and burnPlatter writes it. It computes each entry
// from its index, so a burn allocates no list.
type burnPlan struct {
	geom media.Geometry
	used int
}

// tracks is the length of the list.
func (b burnPlan) tracks() int {
	lgi := b.geom.LargeGroupInfoTracks
	return b.used + (b.used+lgi-1)/lgi*b.geom.LargeGroupRedTracks
}

// track is the list's k-th entry.
func (b burnPlan) track(k int) burnTrack {
	g := b.geom
	if k < b.used {
		return burnTrack{phys: g.InfoTrackPhysical(k), n: g.SectorsPerTrack(), info: k}
	}
	group, red := (k-b.used)/g.LargeGroupRedTracks, (k-b.used)%g.LargeGroupRedTracks
	return burnTrack{phys: g.LargeGroupRedTrack(group, red), n: g.InfoSectorsPerTrack, info: -1, group: group, red: red}
}

// burnPlatter writes payload sectors onto pi.platter through the full
// encode stack, every track of its burnPlan (a payload tail shorter than
// a track is zero-padded). writeAndVerify is its only caller, so every
// platter — fresh, redundancy, or replacement — shares one layout.
//
// The platter is loaded on its glass (newGlass) first. Every planned
// track then goes through one step, a job on the codec engine on pooled
// scratch: its redundancy encode (an information track's within-track
// redundancy, or a redundancy track's row of its large group, each row
// computed once), scramble, LDPC and modulation, the media.write fault
// check, and the media insert, the only serialized part. Sector contents
// depend on nothing but (payload, platter id, address), so the burned
// platter is identical at any worker count.
func (s *Service) burnPlatter(pi *platterInfo, payloads [][]byte) error {
	geom := s.cfg.Geom
	p := pi.platter
	iPerTrack, lgi := geom.InfoSectorsPerTrack, geom.LargeGroupInfoTracks
	usedTracks := (len(payloads) + iPerTrack - 1) / iPerTrack
	plan := burnPlan{geom: geom, used: usedTracks}
	blob, err := s.newGlass(p.ID, plan)
	if err != nil {
		return err
	}
	pi.blob = blob
	if err := p.Load(blob); err != nil {
		return err
	}
	sector := func(idx int) []byte {
		if idx < len(payloads) && payloads[idx] != nil {
			return payloads[idx]
		}
		return s.zero
	}
	var pmu sync.Mutex // serializes media sector inserts
	burn := func(k int) error {
		t := plan.track(k)
		cs := s.acquireScratch()
		defer s.releaseScratch(cs)
		defer clear(cs.group) // the pooled scratch must not keep payloads alive
		// The track's payloads land in the scratch units, and are
		// scrambled there in place.
		units := cs.units[:t.n]
		if t.info >= 0 {
			info := cs.group[:iPerTrack]
			for i := range info {
				info[i] = sector(t.info*iPerTrack + i)
				copy(units[i], info[i])
			}
			if err := s.withinTrack.EncodeRedundancyInto(units[iPerTrack:], info); err != nil {
				return err
			}
		} else {
			members := cs.group[:lgi]
			for sPos, unit := range units {
				for m := range members {
					members[m] = s.zero
					if it := t.group*lgi + m; it < usedTracks {
						members[m] = sector(it*iPerTrack + sPos)
					}
				}
				if err := s.largeGroup.EncodeRowInto(unit, t.red, members); err != nil {
					return err
				}
			}
		}
		for i, unit := range units {
			scrambleInto(unit, unit, p.ID, t.phys, i)
		}
		// Encode the whole track on one scratch, fault-check the encoded
		// sectors in sector order, then insert them under one lock
		// acquisition. An error-mode media.write fault aborts before any
		// of the track's sectors land, and the platter is scrapped; a
		// partial-mode one corrupts the encoded sector, for verification
		// to catch.
		glass := cs.trackGlass[:t.n]
		t0 := time.Now()
		s.pipe.WriteSectorsInto(cs.sector, units, glass)
		s.om.observeCodec(s.om.codecEncode, s.om.codecEncSectors, t.n, time.Since(t0))
		for i, g := range glass {
			if err := s.faults.CheckData(faults.OpMediaWrite, int64(p.ID), t.phys, i, g); err != nil {
				return err
			}
		}
		pmu.Lock()
		for i, g := range glass {
			if err := p.WriteSector(media.SectorID{Track: t.phys, Sector: i}, g); err != nil {
				pmu.Unlock()
				return err
			}
		}
		pmu.Unlock()
		// The track reached the glass: count it, whether or not the rest
		// of the burn does.
		red := t.n
		if t.info >= 0 {
			red -= iPerTrack
		}
		s.om.sectorsWritten.Add(int64(t.n))
		s.om.storedRedundancy.Add(int64(red) * int64(geom.SectorPayloadBytes))
		return nil
	}
	// The information tracks land before any redundancy track is encoded:
	// a media.write fault that scraps the platter on an information track
	// costs no large-group work, and a one-track platter's scrap consumes
	// exactly one fault check, as TestScrappedBurnsAreNotNoiseStrikes
	// counts.
	if err := s.eng.ForEach(plan.used, burn); err != nil {
		return err
	}
	if err := s.eng.ForEach(plan.tracks()-plan.used, func(k int) error { return burn(plan.used + k) }); err != nil {
		return err
	}
	return p.Transition(media.Written)
}

// newGlass lays out the blob that burns plan onto platter id: platter
// id's file with a persist directory, an image in memory without one.
func (s *Service) newGlass(id media.PlatterID, plan burnPlan) (*persist.Blob, error) {
	spt, stride := s.cfg.Geom.SectorsPerTrack(), s.pipe.SectorBytes()
	sectors := func(mark func(media.SectorID)) {
		for k := range plan.tracks() {
			t := plan.track(k)
			for sPos := 0; sPos < t.n; sPos++ {
				mark(media.SectorID{Track: t.phys, Sector: sPos})
			}
		}
	}
	if s.plog == nil {
		return persist.NewBlobImage(id, spt, stride, sectors), nil
	}
	return s.plog.CreatePlatterBlob(id, spt, stride, sectors)
}

// discardGlass closes and removes the blob of a platter that will never
// publish. Its error is dropped: a file left behind has no publish
// record, and recovery's sweep removes it.
func (pi *platterInfo) discardGlass() {
	if pi.blob != nil {
		_ = pi.blob.Discard()
		pi.blob = nil
	}
}

// effectiveShardCap is the shard cap AssignFiles is given: the
// configured cap (100 tracks' worth when unset), bounded by a platter's
// information capacity.
func (s *Service) effectiveShardCap() int {
	geom := s.cfg.Geom
	cap := s.cfg.maxShardSectors
	if cap < 1 {
		cap = geom.InfoSectorsPerTrack * 100
	}
	if platterInfo := geom.InfoTracksPerPlatter() * geom.InfoSectorsPerTrack; cap > platterInfo {
		cap = platterInfo
	}
	return cap
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

// readBackTally is what one read-back window found, reduced per track.
type readBackTally struct {
	sampled      int     // sectors in the window
	failed       int     // sampled sectors unreadable or whose direct decode failed
	worstTrack   int     // most failed sectors on one track
	beyondRepair int     // tracks with more failures than within-track NC restores
	minMargin    float64 // over decoded sectors; +Inf when there are none
	marginSum    float64
}

// readBack reads count information tracks of pi — starting at used track
// first, wrapping — through the real decode stack (voxel demodulation →
// LDPC) with no NC repair masking the result. The write pipeline's
// verification (§3.1) and the scrubber's health sample (§5) are this one
// measurement over different windows. The burn writes every sector of a
// used information track, so every sector in the window is sampled, and
// one the platter cannot read (a blob cut short) is a failed sector.
//
// Tracks are read in parallel, one per worker-visit so the codec
// scratch is acquired once per track; each sector forks its
// noise stream from rng by (physical track, sector), so the tally is
// identical at any worker count. The decode lands in the scratch's
// payload buffer (a read-back never keeps the plaintext), making the
// steady-state loop allocation-free. The per-track reduction is serial,
// in window order.
func (s *Service) readBack(pi *platterInfo, first, count int, rng *sim.RNG) readBackTally {
	geom := s.cfg.Geom
	spt := geom.SectorsPerTrack()
	usedTracks := s.usedTracks(pi)
	type sectorRead struct {
		failed bool // unreadable, or decode failed
		margin float64
	}
	results := make([]sectorRead, count*spt)
	_ = s.eng.ForEach(count, func(t int) error {
		cs := s.acquireScratch()
		defer s.releaseScratch(cs)
		phys := geom.InfoTrackPhysical((first + t) % usedTracks)
		track := results[t*spt : (t+1)*spt]
		for sPos := range track {
			glass, ok := pi.platter.ReadSectorInto(media.SectorID{Track: phys, Sector: sPos}, cs.glass)
			if !ok {
				track[sPos].failed = true
				continue
			}
			t0 := time.Now()
			res := s.pipe.ReadSectorWithBuf(cs.sector, glass, rng.ForkAt(uint64(phys), uint64(sPos)), cs.payload)
			s.om.observeCodec(s.om.codecDecode, s.om.codecDecSectors, 1, time.Since(t0))
			track[sPos] = sectorRead{failed: !res.OK, margin: res.Margin}
		}
		return nil
	})
	tally := readBackTally{sampled: len(results), minMargin: math.Inf(1)}
	for t := 0; t < count; t++ {
		failures := 0
		for _, r := range results[t*spt : (t+1)*spt] {
			if r.failed {
				failures++
				continue
			}
			tally.marginSum += r.margin
			tally.minMargin = min(tally.minMargin, r.margin)
		}
		tally.failed += failures
		tally.worstTrack = max(tally.worstTrack, failures)
		if failures > geom.RedundancySectorsPerTrack {
			tally.beyondRepair++
		}
	}
	return tally
}

// verifyPlatter reads back every used info track and reports whether
// each is recoverable (at most R_t failed sectors). It records the worst
// LDPC margin observed — "together with the expected read error rate
// over time, we can determine whether to record a file as durably
// stored" (§5).
func (s *Service) verifyPlatter(pi *platterInfo, rng *sim.RNG) bool {
	tally := s.readBack(pi, 0, s.usedTracks(pi), rng)
	s.om.verifyFailures.Add(int64(tally.failed))
	s.om.minVerifyMargin.Min(tally.minMargin)
	return tally.beyondRepair == 0
}

// reclosePendingSet closes a pending set that is already full: its
// close never finished, cut off by a crash before the set-close record
// or failed (scrapped redundancy burns, a publish fault, a failed
// record). The set closes again with fresh redundancy, under the index
// its members already carry.
func (s *Service) reclosePendingSet(ctx context.Context) error {
	if len(s.pendingSet) < s.cfg.SetInfo {
		return nil
	}
	if _, err := s.closeSet(ctx); err != nil || s.plog == nil {
		return err
	}
	return s.plog.Sync()
}

// redundancySlab returns SetRed payload lists of n sectors each, views
// of one buffer that every set close reuses: the caller holds flushMu
// and drops every view before it releases it. The buffer is sized once,
// at the first close, for a platter's whole information capacity, which
// no member's used tracks exceed.
func (s *Service) redundancySlab(n int) [][][]byte {
	if s.setRed == nil {
		geom := s.cfg.Geom
		size, per := geom.SectorPayloadBytes, geom.InfoTracksPerPlatter()*geom.InfoSectorsPerTrack
		buf := make([]byte, s.cfg.SetRed*per*size)
		s.setRed = make([][][]byte, s.cfg.SetRed)
		for r := range s.setRed {
			s.setRed[r] = make([][]byte, per)
			for sec := range s.setRed[r] {
				off := (r*per + sec) * size
				s.setRed[r][sec] = buf[off : off+size : off+size]
			}
		}
	}
	red := make([][][]byte, s.cfg.SetRed)
	for r := range red {
		red[r] = s.setRed[r][:n]
	}
	return red
}

// closeSet writes the SetRed redundancy platters over the pending
// members, records the whole close in one RecSetClose, and only then
// makes it visible: the redundancy platters, the set, the emptied
// pending set. On any error the members are still pending, for
// reclosePendingSet. It returns the wall time of its encode, burn and
// verify phases, for a caller timing its own phase to subtract.
func (s *Service) closeSet(ctx context.Context) (setWork time.Duration, err error) {
	members := append([]media.PlatterID(nil), s.pendingSet...)
	infos := make([]*platterInfo, len(members))
	s.mu.RLock()
	for i, m := range members {
		infos[i] = s.platters[m]
	}
	s.mu.RUnlock()

	// Redundancy platters: sector (track t, pos p) of redundancy
	// platter r is the NC combination of members' (t, p) payloads. A
	// member burned by this process still holds them in its payload
	// cache, which is flush-owned, so reading it unlocked is safe: only
	// this (flushMu-serialized) pipeline touches it. A member recovered
	// across a restart has none, and is read back from its glass through
	// its own coding levels, each (member, sector) on a noise stream
	// forked from the set's index, so the set's bytes are the same at
	// any worker count.
	geom := s.cfg.Geom
	setIdx := infos[0].set
	var fromGlass []*platterInfo
	maxSectors := 0
	for _, mpi := range infos {
		maxSectors = max(maxSectors, s.usedTracks(mpi)*geom.InfoSectorsPerTrack)
		if mpi.payloads == nil {
			fromGlass = append(fromGlass, mpi)
		}
	}
	s.chargeMemberReads(fromGlass)
	decRNG := s.rootRNG.Fork(fmt.Sprintf("set-%d-close", setIdx))
	workStart := time.Now()
	encode := obs.StartSpan(ctx, "encode")
	encodeDone := phaseTimer(s.om.phaseEncode)
	redPayloads := s.redundancySlab(maxSectors)
	err = s.eng.ForEach(maxSectors, func(sec int) error {
		cs := s.acquireScratch()
		defer s.releaseScratch(cs)
		views := cs.group[:s.setGroup.Size()]
		units, red := views[:s.cfg.SetInfo], views[s.cfg.SetInfo:]
		for mi, mpi := range infos {
			switch {
			case sec < len(mpi.payloads):
				units[mi] = mpi.payloads[sec]
			case mpi.payloads != nil || sec >= mpi.usedInfoSectors:
				units[mi] = s.zero
			case s.readOwnLevels(ctx, mpi, sec, decRNG.ForkAt(uint64(mi), uint64(sec)), cs.units[mi]):
				units[mi] = cs.units[mi]
			default:
				return fmt.Errorf("service: set %d member %d sector %d: %w", setIdx, mpi.platter.ID, sec, ErrUnavailable)
			}
		}
		for r := range red {
			red[r] = redPayloads[r][sec]
		}
		err := s.setGroup.EncodeRedundancyInto(red, units)
		clear(views) // the pooled scratch must not keep payloads alive
		return err
	})
	encode.End()
	encodeDone()
	if err != nil {
		return 0, err
	}
	// Burn every redundancy platter before publishing any, so the heavy
	// work is one stretch and the rest of closeSet is publication. They
	// keep no payload cache: their payloads are views of the slab the
	// next close overwrites. On any error before the close is recorded,
	// every one burned is discarded, its blob with it.
	reds := make([]*platterInfo, 0, s.cfg.SetRed)
	defer func() {
		if err != nil {
			for _, rpi := range reds {
				rpi.discardGlass()
			}
		}
	}()
	for r := 0; r < s.cfg.SetRed; r++ {
		rpi := &platterInfo{
			platter:         media.NewPlatter(s.allocPlatterID(), geom),
			usedInfoSectors: maxSectors,
			set:             setIdx, setPos: s.cfg.SetInfo + r, isRedundancy: true,
		}
		if err := s.burnOnFreshGlass(ctx, rpi, redPayloads[r]); err != nil {
			return 0, fmt.Errorf("service: set %d redundancy: %w", setIdx, err)
		}
		reds = append(reds, rpi)
	}
	setWork = time.Since(workStart)
	// Durable before visible: every redundancy platter's blob, then the
	// close's one record.
	for _, rpi := range reds {
		if err = s.makeDurable(rpi); err != nil {
			break
		}
		members = append(members, rpi.platter.ID)
	}
	const reason = "published (set redundancy)"
	if err == nil && s.plog != nil {
		_, err = s.plog.Append(&persist.RecSetClose{
			Set: setIdx, Members: members, Redundancy: len(reds), Used: maxSectors,
			Reason: reason, AtUnixNano: time.Now().UnixNano(),
		})
	}
	if err != nil {
		return 0, err
	}
	for _, rpi := range reds {
		s.show(reason, rpi)
	}
	s.mu.Lock()
	s.sets = append(s.sets, members)
	s.pendingSet = nil
	// Payload caches can be dropped once the set is protected; recovery
	// decodes from glass.
	for _, m := range members {
		s.platters[m].payloads = nil
	}
	s.mu.Unlock()
	return setWork, nil
}
