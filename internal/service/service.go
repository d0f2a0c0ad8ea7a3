// Package service is the Silica storage front end: the end-to-end data
// path of the paper, operating on real bytes. Put encrypts and stages
// a file; Flush batches staged files onto platters (layout §6), pushes
// every sector through LDPC + voxel modulation + the optical channel
// model, computes within-track, large-group, and cross-platter
// network-coding redundancy (§5), verifies each platter by reading it
// back through the same read path before releasing staged data (§3.1),
// and records extents in the metadata service. Get reads back through
// the channel with the full §5 recovery hierarchy: LDPC first,
// within-track NC for failed sectors, large-group NC for destroyed
// tracks, and cross-platter NC when a platter is unavailable. Delete
// removes pointers and crypto-shreds the key (§3).
//
// Service is safe for concurrent use. Locking is fine-grained so the
// serving layer (internal/gateway) can drive it with worker pools:
// the staging tier, metadata store, and keystore synchronize
// themselves; a read-write mutex guards only the platter index and
// set registry (platters are immutable once published there); flushes
// are serialized among themselves but overlap freely with Put/Get/
// Delete. Reads of flushed extents therefore never wait behind
// staging writes or the long encode/verify work of a flush.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"silica/internal/backend"
	"silica/internal/codec"
	"silica/internal/faults"
	"silica/internal/keystore"
	"silica/internal/ldpc"
	"silica/internal/media"
	"silica/internal/metadata"
	"silica/internal/nc"
	"silica/internal/obs"
	"silica/internal/persist"
	"silica/internal/repair"
	"silica/internal/sim"
	"silica/internal/staging"
	"silica/internal/voxel"
)

// ErrUnavailable is returned when data cannot be recovered at any
// coding level.
var ErrUnavailable = errors.New("service: data unavailable")

// Config sizes a service instance. The default uses the tiny platter
// geometry so real bytes flow through the full codec in memory.
type Config struct {
	Geom media.Geometry
	// LDPC block shape for the sector code.
	LDPCBlock, LDPCData int
	Channel             voxel.Channel
	StagingCapacity     int64 // 0 = unbounded
	// SetInfo/SetRed shape the cross-platter platter-sets.
	SetInfo, SetRed int
	Seed            uint64
	// maxShardSectors caps a file's footprint per platter (§6 large
	// file sharding). 0 = 100 tracks' worth; either way at most one
	// platter's information capacity. Only tests lower it, to shard
	// files on small geometries.
	maxShardSectors int
	// ArrivalClock, when set, timestamps staged files (seconds, any
	// monotonic origin). The staging batcher orders by arrival and the
	// gateway's flush scheduler ages the oldest staged file against
	// its watermark. Nil stamps everything 0.
	ArrivalClock func() float64
	// CodecWorkers bounds the codec engine's parallelism: how many
	// sector-granular encode/verify/scrub/rebuild jobs run concurrently.
	// 0 sizes the pool from GOMAXPROCS; 1 forces the serial baseline.
	// Output is bit-identical at any worker count (every sector job
	// forks its own RNG stream from pure seed material).
	CodecWorkers int
	// Metrics receives the service's telemetry (staging occupancy,
	// flush phase timings, read recoveries, codec engine activity).
	// Nil gets a private registry, so instrumentation is always live
	// and callers never nil-check.
	Metrics *obs.Registry
	// Faults, when set, is consulted at the pipeline's injection
	// points (media reads/writes, staging reservations, flush phases).
	// Nil disables fault injection at zero cost.
	Faults *faults.Injector
	// Backend charges mechanical latency for every media touch (reads,
	// burns, scrub samples, rebuild member reads). Nil means
	// backend.Direct: the historical zero-cost path. Backends only add
	// latency — bytes are identical under any backend.
	Backend backend.Backend
	// PersistDir, when set, makes the service durable: state recovers
	// from snapshot+WAL at startup and every acknowledged mutation is
	// logged (and fsynced) before the acknowledgment. Empty keeps the
	// historical pure in-memory mode.
	PersistDir string
	// PersistSnapshotEvery bounds WAL growth: a new snapshot is cut
	// once this many records accumulate past the last one (checked at
	// flush boundaries). 0 = default (4096).
	PersistSnapshotEvery int
}

// DefaultConfig returns an in-memory full-codec service.
func DefaultConfig() Config {
	return Config{
		Geom:      media.TinyGeometry(),
		LDPCBlock: 512,
		LDPCData:  384,
		Channel:   voxel.DefaultChannel(),
		SetInfo:   4, // tiny-scale sets; production uses 16+3
		SetRed:    2,
		Seed:      1,
	}
}

// Stats summarizes service activity: counts of events in this process,
// and the (possibly recovered) state in Files, SetsCompleted,
// HealthTransitions and DegradedSets (DESIGN.md §9).
type Stats struct {
	Files              int
	PlattersWritten    int
	PlattersFaulted    int
	SectorsWritten     int
	SectorRepairs      int // within-track NC repairs during reads/verify
	TrackRebuilds      int // large-group NC track reconstructions
	PlatterRecovers    int // cross-platter NC reconstructions
	VerifyFailures     int // sectors that failed verification decode
	BytesStored        int64
	RedundancyBytes    int64
	StagedReads        int
	DurableReads       int
	MinVerifyMargin    float64
	SetsCompleted      int
	RedundancyPlatters int
	// Repair subsystem counters.
	PlattersRebuilt   int     // platters replaced via set reconstruction
	ScrubbedSectors   int     // sectors sampled by the background scrubber
	ScrubFailures     int     // scrubbed sectors whose direct decode failed
	ScrubMinMargin    float64 // worst decode margin seen by any scrub
	HealthTransitions int64   // total platter health transitions (snapshot)
	DegradedSets      int     // completed sets with >=1 unavailable member (snapshot)
}

// platterInfo is the in-memory media plus caches. Everything except
// the health record and the flush-owned payload cache is immutable
// once the platter is published in Service.platters.
type platterInfo struct {
	platter *media.Platter
	// blob is the platter's glass from its burn on (see newGlass): the
	// file a publish makes durable, or a scrap discards.
	blob *persist.Blob
	// payloads caches an information platter's info-sector payloads
	// (post-encryption) from its burn until its set completes, for
	// cross-platter redundancy encoding; a platter recovered across a
	// restart, or one of set redundancy, has none. Owned by the flush
	// pipeline (flushMu); readers never touch it. Read-only: its full
	// sectors alias staged ciphertext (staging.File.Data), and its
	// padding is Service.zero.
	payloads [][]byte
	// usedInfoSectors counts payload slots filled.
	usedInfoSectors int
	// rec is the platter's entry in the health registry; the read path
	// consults rec.Unavailable() (atomic) instead of a private flag, so
	// failures — injected, scrub-detected, or operator-declared — are
	// observable and feed the repair subsystem.
	rec          *repair.Record
	set          int // platter-set index, -1 until assigned (guarded by mu)
	setPos       int // unit index within the set (info then red)
	isRedundancy bool
	// scrubCursor rotates the scrubber's track window across passes.
	scrubCursor atomic.Int64
}

// Service is the storage front end.
type Service struct {
	cfg  Config
	pipe *voxel.SectorPipeline
	eng  *codec.Engine

	// scratch is the free list of per-worker codec working sets
	// (read-back sector buffer, voxel/LDPC scratch, NC units). An
	// entry is built only when the list is empty, so the list never
	// holds more than the peak number in use at once, and unlike a
	// sync.Pool a collection cannot empty it.
	scratchMu sync.Mutex
	scratch   []*codecScratch

	keys    *keystore.Store
	meta    *metadata.Store
	tier    *staging.Tier
	health  *repair.Registry
	faults  *faults.Injector // nil-safe; Config.Faults
	backend backend.Backend  // never nil; Config.Backend or Direct

	withinTrack *nc.Group
	largeGroup  *nc.Group
	setGroup    *nc.Group
	zero        []byte // one sector of zeros, read-only: every implicit-zero unit

	// mu guards the platter index and the completed-set registry.
	// Readers hold it only long enough to resolve pointers; published
	// platter contents are immutable, so decoding proceeds unlocked.
	mu          sync.RWMutex
	platters    map[media.PlatterID]*platterInfo
	nextPlatter media.PlatterID
	sets        [][]media.PlatterID // per set: info members then red members

	// flushMu serializes flushes; pendingSet and setRed, closeSet's
	// reused redundancy slab, are flush-only state.
	flushMu    sync.Mutex
	pendingSet []media.PlatterID
	setRed     [][][]byte

	// rootRNG is pure seed material: every operation forks its own
	// stream from it, so concurrent reads never share generator state.
	rootRNG *sim.RNG
	opSeq   atomic.Uint64

	// One set of books: every event is counted once, in om.
	reg *obs.Registry
	om  serviceMetrics

	// plog is the durability subsystem (nil in in-memory mode). All
	// appends happen on acknowledged-mutation paths; see persist.go.
	plog *persist.Log
	// cutMu keeps a snapshot's cut from falling between a record and its
	// effect: Put and Delete hold it shared from their first metadata
	// change to their last, and the cut holds it exclusively.
	cutMu sync.RWMutex
}

// New builds a service.
func New(cfg Config) (*Service, error) {
	if err := cfg.Geom.Validate(); err != nil {
		return nil, err
	}
	if cfg.SetInfo < 1 || cfg.SetRed < 0 {
		return nil, fmt.Errorf("service: bad set shape %d+%d", cfg.SetInfo, cfg.SetRed)
	}
	code, err := ldpc.NewCode(cfg.LDPCBlock, cfg.LDPCData, cfg.Seed^0xbeef)
	if err != nil {
		return nil, err
	}
	sectorCodec, err := ldpc.NewSectorCodec(code, cfg.Geom.SectorPayloadBytes)
	if err != nil {
		return nil, err
	}
	wt, err := nc.NewGroup(cfg.Geom.InfoSectorsPerTrack, cfg.Geom.RedundancySectorsPerTrack, nc.Cauchy, cfg.Seed^0x1)
	if err != nil {
		return nil, fmt.Errorf("service: within-track group: %w", err)
	}
	lg, err := nc.NewGroup(cfg.Geom.LargeGroupInfoTracks, cfg.Geom.LargeGroupRedTracks, nc.Cauchy, cfg.Seed^0x2)
	if err != nil {
		return nil, fmt.Errorf("service: large group: %w", err)
	}
	sg, err := nc.NewGroup(cfg.SetInfo, cfg.SetRed, nc.Cauchy, cfg.Seed^0x3)
	if err != nil {
		return nil, fmt.Errorf("service: platter-set group: %w", err)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Service{
		cfg:         cfg,
		rootRNG:     sim.NewRNG(cfg.Seed).Fork("service"),
		pipe:        voxel.NewSectorPipeline(sectorCodec, cfg.Channel),
		eng:         codec.NewEngine(cfg.CodecWorkers, reg),
		keys:        keystore.New(),
		meta:        metadata.NewStore(),
		tier:        staging.NewTier(cfg.StagingCapacity),
		health:      repair.NewRegistry(),
		faults:      cfg.Faults,
		backend:     cfg.Backend,
		withinTrack: wt,
		largeGroup:  lg,
		setGroup:    sg,
		zero:        make([]byte, cfg.Geom.SectorPayloadBytes),
		platters:    make(map[media.PlatterID]*platterInfo),
		reg:         reg,
	}
	if s.backend == nil {
		s.backend = backend.Direct{}
	}
	s.om = newServiceMetrics(reg, s.tier.Usage)
	// Error classes a rule's err= field may name at this layer; the
	// gateway adds its own (overloaded) on top.
	s.faults.MapError("capacity", staging.ErrCapacity)
	s.faults.MapError("unavailable", ErrUnavailable)
	s.faults.Instrument(s.reg)
	if cfg.PersistDir != "" {
		if err := s.openPersist(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Faults exposes the fault injector (nil when disabled), for the
// gateway's admin endpoint.
func (s *Service) Faults() *faults.Injector { return s.faults }

// Backend exposes the mechanical backend (never nil), so the gateway
// can close it after the final flush.
func (s *Service) Backend() backend.Backend { return s.backend }

// chargeMech bills one media touch to the backend, blocking for its
// mechanical latency. Bytes are never affected. Only the caller's own
// cancellation propagates as an error; a closing backend charges
// nothing and lets background work (scrub, rebuild, final flush)
// finish unbilled.
func (s *Service) chargeMech(ctx context.Context, op backend.Op) error {
	_, err := s.backend.Do(ctx, op)
	if err != nil && ctx.Err() != nil {
		return err
	}
	return nil
}

// codecScratch is one worker's reusable buffers for the sector hot
// paths: the voxel/LDPC pipeline scratch, a read-back sector buffer, a
// decode payload buffer for paths that never retain the plaintext
// (verify, scrub, descramble-and-copy reads), a sector per unit of the
// widest NC group or track (a burned track's payloads, gathered units),
// slice headers for one group's information units, and set recovery's
// working lists. Kept on the service's free list so steady-state
// encode, verify, scrub and set recovery allocate nothing per sector.
type codecScratch struct {
	sector     *voxel.SectorScratch
	glass      []byte // one sector as the platter stores it
	payload    []byte
	units      [][]byte
	group      [][]byte // views of one NC group's units, no storage
	trackGlass [][]byte // one encoded sector per sector of a track
	ncUnits    []ncUnit
	set        []*platterInfo
	avail      map[int][]byte
}

func (s *Service) acquireScratch() *codecScratch {
	s.scratchMu.Lock()
	if n := len(s.scratch) - 1; n >= 0 {
		cs := s.scratch[n]
		s.scratch = s.scratch[:n]
		s.scratchMu.Unlock()
		return cs
	}
	s.scratchMu.Unlock()
	spt := s.cfg.Geom.SectorsPerTrack()
	cs := &codecScratch{
		sector:     s.pipe.AcquireScratch(),
		glass:      make([]byte, s.pipe.SectorBytes()),
		payload:    make([]byte, s.cfg.Geom.SectorPayloadBytes),
		units:      make([][]byte, max(spt, s.largeGroup.Size(), s.setGroup.Size())),
		group:      make([][]byte, max(s.withinTrack.I, s.largeGroup.I, s.setGroup.Size())),
		trackGlass: make([][]byte, spt),
		avail:      make(map[int][]byte),
	}
	for i := range cs.units {
		cs.units[i] = make([]byte, s.cfg.Geom.SectorPayloadBytes)
	}
	for i := range cs.trackGlass {
		cs.trackGlass[i] = make([]byte, s.pipe.SectorBytes())
	}
	return cs
}

func (s *Service) releaseScratch(cs *codecScratch) {
	s.scratchMu.Lock()
	s.scratch = append(s.scratch, cs)
	s.scratchMu.Unlock()
}

// Stats returns a snapshot: counts and the two minimum margins read off
// the registry children /metrics exposes, state computed from state.
func (s *Service) Stats() Stats {
	m := &s.om
	s.mu.RLock()
	sets := len(s.sets)
	s.mu.RUnlock()
	return Stats{
		Files:              s.meta.Files(),
		PlattersWritten:    int(m.plattersWritten.Value()),
		PlattersFaulted:    int(m.plattersFaulted.Value()),
		SectorsWritten:     int(m.sectorsWritten.Value()),
		SectorRepairs:      int(m.recSector.Value()),
		TrackRebuilds:      int(m.recTrack.Value()),
		PlatterRecovers:    int(m.recSet.Value()),
		VerifyFailures:     int(m.verifyFailures.Value()),
		BytesStored:        m.storedUser.Value(),
		RedundancyBytes:    m.storedRedundancy.Value(),
		StagedReads:        int(m.readsStaged.Value()),
		DurableReads:       int(m.readsDurable.Value()),
		MinVerifyMargin:    m.minVerifyMargin.Value(),
		SetsCompleted:      sets,
		RedundancyPlatters: int(m.plattersRedundancy.Value()),
		PlattersRebuilt:    int(m.plattersRebuilt.Value()),
		ScrubbedSectors:    int(m.scrubSectors.Value()),
		ScrubFailures:      int(m.scrubFailures.Value()),
		ScrubMinMargin:     m.minScrubMargin.Value(),
		HealthTransitions:  s.health.TransitionTotal(),
		DegradedSets:       s.DegradedSets(),
	}
}

// Metadata exposes the metadata service (read-only use expected).
func (s *Service) Metadata() *metadata.Store { return s.meta }

// Health exposes the platter health registry.
func (s *Service) Health() *repair.Registry { return s.health }

// DegradedSets counts completed platter-sets with at least one
// unavailable member: sets that have lost redundancy and need a
// rebuild before they can absorb another failure.
func (s *Service) DegradedSets() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	degraded := 0
	for _, members := range s.sets {
		for _, id := range members {
			if pi := s.platters[id]; pi == nil || pi.rec.Unavailable() {
				degraded++
				break
			}
		}
	}
	return degraded
}

// StagedBytes reports bytes waiting in the staging tier.
func (s *Service) StagedBytes() int64 { return s.tier.Used() }

// StagingUsage reports a consistent occupancy snapshot of the staging
// tier: the gateway's admission-control and flush-watermark input.
func (s *Service) StagingUsage() staging.Usage { return s.tier.Usage() }

// arrival samples the configured arrival clock.
func (s *Service) arrival() float64 {
	if s.cfg.ArrivalClock != nil {
		return s.cfg.ArrivalClock()
	}
	return 0
}

// Put encrypts data under a fresh per-version key and stages it. The
// file becomes durable at the next Flush. When staging capacity is
// exhausted it fails with staging.ErrCapacity before registering
// anything, so a rejected Put leaves no metadata or key behind — the
// overload path the gateway maps to HTTP 429.
func (s *Service) Put(account, name string, data []byte) (int, error) {
	return s.PutCtx(context.Background(), account, name, data)
}

// PutCtx is Put recording trace spans (reserve, encrypt, stage) into
// the trace carried by ctx, if any. An untraced ctx costs one nil
// check per span. Cancellation is honored at stage boundaries: a Put
// abandoned between reserve and stage cancels its reservation and
// returns an error wrapping ctx.Err(), never leaving half-registered
// state behind.
func (s *Service) PutCtx(ctx context.Context, account, name string, data []byte) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("service: put canceled: %w", err)
	}
	key := metadata.FileKey{Account: account, Name: name}
	ctSize := int64(len(data)) + keystore.Overhead
	reserve := obs.StartSpan(ctx, "reserve")
	if err := s.faults.Check(faults.OpStagingReserve, -1, -1, -1); err != nil {
		reserve.End()
		return 0, err
	}
	if err := s.tier.Reserve(ctSize); err != nil {
		reserve.End()
		return 0, err
	}
	reserve.End()
	if err := ctx.Err(); err != nil {
		s.tier.CancelReservation(ctSize)
		return 0, fmt.Errorf("service: put canceled after reserve: %w", err)
	}
	// Key ids are opaque and unique per Put; the version cannot be
	// named yet because metadata registration comes last.
	encrypt := obs.StartSpan(ctx, "encrypt")
	seq := s.opSeq.Add(1)
	kid := fmt.Sprintf("%s#k%d", key, seq)
	if err := s.keys.CreateKey(kid); err != nil {
		encrypt.End()
		s.tier.CancelReservation(ctSize)
		return 0, err
	}
	ct, err := s.keys.Encrypt(kid, data)
	encrypt.End()
	if err != nil {
		s.tier.CancelReservation(ctSize)
		_ = s.keys.Shred(kid)
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		s.tier.CancelReservation(ctSize)
		_ = s.keys.Shred(kid)
		return 0, fmt.Errorf("service: put canceled after encrypt: %w", err)
	}
	stage := obs.StartSpan(ctx, "stage")
	arrival := s.arrival()
	s.cutMu.RLock()
	v := s.meta.Put(key, int64(len(data)), kid, arrival)
	if s.plog != nil {
		// The record must carry the key material: ciphertext without its
		// key is a completed delete, not a recovered write.
		material, err := s.keys.Material(kid)
		if err == nil {
			_, err = s.plog.Append(&persist.RecPut{
				Account: account, Name: name, Version: v.Version,
				Size: int64(len(data)), KeyID: kid, Key: material,
				Arrival: arrival, Ciphertext: ct, OpSeq: seq,
			})
		}
		if err != nil {
			// Withdraw the version as replay leaves one with no record.
			s.meta.RestoreVersion(key, metadata.Version{Version: v.Version, State: metadata.Deleted})
			s.cutMu.RUnlock()
			stage.End()
			s.tier.CancelReservation(ctSize)
			_ = s.keys.Shred(kid)
			return 0, fmt.Errorf("service: put not durable: %w", err)
		}
	}
	s.tier.AdmitReserved(&staging.File{
		Key: key, Version: v.Version, Size: int64(len(ct)), Data: ct, Arrival: arrival,
	})
	s.cutMu.RUnlock()
	stage.End()
	// Group-commit fsync before the acknowledgment: an acked put is on
	// disk, an un-acked one may or may not be — both are recoverable.
	if s.plog != nil {
		if err := s.plog.Sync(); err != nil {
			return 0, fmt.Errorf("service: put not durable: %w", err)
		}
	}
	return v.Version, nil
}

// Delete removes the file's pointers and shreds all its keys: the
// glass copies become permanently unreadable ciphertext (§3).
func (s *Service) Delete(account, name string) error {
	return s.DeleteCtx(context.Background(), account, name)
}

// DeleteCtx is Delete honoring cancellation until its record, which
// names the live versions' key ids, is appended; after it the pointers
// are removed and the keys shredded. A failed append leaves the object
// readable, as a reopen would. A Put of the same key racing it may get a
// version marked deleted in memory whose key the record does not name.
func (s *Service) DeleteCtx(ctx context.Context, account, name string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("service: delete canceled: %w", err)
	}
	key := metadata.FileKey{Account: account, Name: name}
	s.cutMu.RLock()
	kids, err := s.meta.LiveKeyIDs(key)
	if err == nil && s.plog != nil {
		if _, err = s.plog.Append(&persist.RecDelete{Account: account, Name: name, KeyIDs: kids}); err != nil {
			err = fmt.Errorf("service: delete not durable: %w", err)
		}
	}
	if err == nil {
		s.meta.Delete(key)
		for _, kid := range kids {
			_ = s.keys.Shred(kid) // fails only for a key already gone
		}
	}
	s.cutMu.RUnlock()
	if err == nil && s.plog != nil {
		if err := s.plog.Sync(); err != nil {
			return fmt.Errorf("service: delete not durable: %w", err)
		}
	}
	return err
}

// platterByID resolves a published platter.
func (s *Service) platterByID(id media.PlatterID) (*platterInfo, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	pi, ok := s.platters[id]
	return pi, ok
}

// FailPlatter marks a platter unavailable (a blast-zone or drive
// failure stand-in) so reads exercise cross-platter recovery. The
// failure is routed through the health registry — observable in
// /v1/health/platters and owed a rebuild, which the repair manager's
// rebuild loop reads off the registry.
func (s *Service) FailPlatter(id media.PlatterID) error {
	if _, ok := s.platterByID(id); !ok {
		return fmt.Errorf("service: unknown platter %d", id)
	}
	return s.health.Transition(id, repair.Failed, "injected failure")
}
