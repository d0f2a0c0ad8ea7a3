package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"silica/internal/faults"
	"silica/internal/gateway"
	"silica/internal/metadata"
	"silica/internal/obs"
	"silica/internal/persist"
	"silica/internal/service"
	"silica/internal/staging"
)

// replicaPrefix namespaces the cross-library redundancy copy inside
// the holder's account space, so a library can hold both roles of
// different keys without collision and a rebalance can address each
// role independently.
const replicaPrefix = "~replica~"

// unavailableError is a router-level reason a request cannot be served
// right now. It keeps its own message but unwraps to
// service.ErrUnavailable, so in-process callers and HTTP clients (503
// with Retry-After) see the same retryable class a single library
// reports.
type unavailableError string

func (e unavailableError) Error() string { return string(e) }
func (unavailableError) Unwrap() error   { return service.ErrUnavailable }

// ErrNoLibraries is returned when no live library can serve a request.
var ErrNoLibraries error = unavailableError("cluster: no live libraries")

// ErrUnknownLibrary names a member the cluster has never seen.
var ErrUnknownLibrary = errors.New("cluster: unknown library")

// ErrLibraryClosed is returned by a RemoteLibrary after Close: the
// router has released the member and no longer routes to it.
var ErrLibraryClosed error = unavailableError("cluster: remote library closed")

// LibraryState is one member's serving-stack summary for /v1/cluster.
type LibraryState struct {
	Healthy  bool          `json:"healthy"`
	Degraded bool          `json:"degraded"` // reduced redundancy or rebuild in flight
	InFlight int64         `json:"in_flight"`
	Staging  staging.Usage `json:"staging"`
	Platters int           `json:"platters_written"`
	Flushes  int64         `json:"flushes"`
}

// Library is one archive library the cluster routes to: a full
// serving stack with its own staging tier, platter index, flush
// scheduler, and repair manager. LocalLibrary wraps an in-process
// *gateway.Gateway; RemoteLibrary wraps a *gateway.Client pointed at a
// peer silicad.
type Library interface {
	PutCtx(ctx context.Context, account, name string, data []byte) (int, error)
	GetCtx(ctx context.Context, account, name string) ([]byte, error)
	DeleteCtx(ctx context.Context, account, name string) error
	Flush() error
	Close() error
	State() LibraryState
}

// LocalLibrary is an in-process shard: its own gateway over its own
// service, so its queues, flush scheduler, and platter index are
// private — no cross-shard flushMu or index contention.
type LocalLibrary struct{ G *gateway.Gateway }

func (l LocalLibrary) PutCtx(ctx context.Context, account, name string, data []byte) (int, error) {
	return l.G.PutCtx(ctx, account, name, data)
}
func (l LocalLibrary) GetCtx(ctx context.Context, account, name string) ([]byte, error) {
	return l.G.GetCtx(ctx, account, name)
}
func (l LocalLibrary) DeleteCtx(ctx context.Context, account, name string) error {
	return l.G.DeleteCtx(ctx, account, name)
}
func (l LocalLibrary) Flush() error { return l.G.Flush() }
func (l LocalLibrary) Close() error { return l.G.Close() }
func (l LocalLibrary) State() LibraryState {
	ctr := l.G.Counters()
	return LibraryState{
		Healthy:  true,
		Degraded: l.G.Degraded(),
		InFlight: ctr.Accepted - ctr.Completed,
		Staging:  l.G.Service().StagingUsage(),
		Platters: l.G.Service().Stats().PlattersWritten,
		Flushes:  ctr.Flushes,
	}
}

// RemoteLibrary is a peer silicad reached over HTTP. The shared
// bounded transport in gateway.Client keeps rebuild/router fan-out on
// pooled connections; the retry policy rides out transient 429/503s.
// Close does not touch the peer daemon — its lifecycle is not the
// router's — but it does release the router's side of the
// relationship: idle pooled connections are reaped and every later
// call fails with ErrLibraryClosed, so a "closed" member can never be
// silently routed to again.
type RemoteLibrary struct {
	C      *gateway.Client
	closed atomic.Bool
}

// NewRemoteLibrary wraps a client as a cluster member.
func NewRemoteLibrary(c *gateway.Client) *RemoteLibrary { return &RemoteLibrary{C: c} }

func (r *RemoteLibrary) PutCtx(ctx context.Context, account, name string, data []byte) (int, error) {
	if r.closed.Load() {
		return 0, ErrLibraryClosed
	}
	return r.C.PutCtx(ctx, account, name, data)
}
func (r *RemoteLibrary) GetCtx(ctx context.Context, account, name string) ([]byte, error) {
	if r.closed.Load() {
		return nil, ErrLibraryClosed
	}
	return r.C.GetCtx(ctx, account, name)
}
func (r *RemoteLibrary) DeleteCtx(ctx context.Context, account, name string) error {
	if r.closed.Load() {
		return ErrLibraryClosed
	}
	return r.C.DeleteCtx(ctx, account, name)
}
func (r *RemoteLibrary) Flush() error {
	if r.closed.Load() {
		return ErrLibraryClosed
	}
	return r.C.Flush()
}

// Close marks the member unreachable and releases the client's idle
// pooled connections. Idempotent.
func (r *RemoteLibrary) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	r.C.CloseIdle()
	return nil
}

func (r *RemoteLibrary) State() LibraryState {
	st := LibraryState{}
	if r.closed.Load() {
		return st
	}
	hz, err := r.C.Healthz()
	if err != nil {
		return st
	}
	st.Healthy = true
	st.Degraded = hz.Status != "ok"
	if snap, err := r.C.Stats(); err == nil {
		st.InFlight = snap.Counters.Accepted - snap.Counters.Completed
		st.Staging = snap.Staging
		st.Platters = snap.Service.PlattersWritten
		st.Flushes = snap.Counters.Flushes
	}
	return st
}

// member is one library slot: the ring knows it by name; alive flips
// false on kill/drain and the router stops placing data there. epoch
// increments every time the member is rebuilt from scratch — a fresh
// library under an old name carries none of the old bytes, and copies
// recorded against an earlier epoch must be treated as gone.
type member struct {
	name  string
	lib   Library
	alive bool
	epoch uint64
}

// entry records where one object's copies live. The primary holds the
// object under its own account; the replica holds it under the
// replicaPrefix namespace. Either copy alone reconstructs the object.
// pEpoch/rEpoch pin the member incarnation each copy was written to:
// a copy on a member whose epoch has since advanced does not exist.
type entry struct {
	account, name    string
	primary, replica string // replica == "" when the cluster has one member
	pEpoch, rEpoch   uint64
	version          int
	size             int64
	// deleting marks recorded delete intent: reads treat the object as
	// gone, and a retry or reconcile pass finishes removing the copies
	// before the entry is dropped. Survives restarts (RecDirTombstone).
	deleting bool
}

// Config shapes a cluster router.
type Config struct {
	// Seed fixes ring placement; the same seed and membership give
	// byte-identical routing across restarts.
	Seed uint64
	// VNodes is the per-library virtual-node count (0 = DefaultVNodes).
	VNodes int
	// RetryAfter is the backoff hint for the router's 429/503 responses.
	RetryAfter time.Duration
	// PersistDir, when set, gives the router its own durability log:
	// every placement, delete intent/completion, and membership change
	// is appended and fsynced before the operation is acknowledged, and
	// New recovers the directory, member epochs, and ring configuration
	// from it. (Each member's payload durability is its own persist
	// directory; this log holds only where the copies live.)
	PersistDir string
	// PersistSnapshotEvery is the WAL-records-per-snapshot threshold
	// (0 = default 4096).
	PersistSnapshotEvery int64
	// Faults, when non-nil, arms the cluster.place / cluster.delete /
	// cluster.member injection points on the durability path, plus the
	// persist.* points inside the router's own log.
	Faults *faults.Injector
	// RebalanceWorkers bounds the parallel reconcile walk
	// (0 = default 4).
	RebalanceWorkers int
	// RebalanceThrottle is the per-key pause a rebalance worker takes
	// while foreground requests are in flight (0 = default 200µs,
	// negative = no throttle).
	RebalanceThrottle time.Duration
}

// Cluster is the placement/router tier. Create with New, add members
// with AddLibrary, stop with Close.
type Cluster struct {
	cfg   Config
	start time.Time

	mu      sync.RWMutex
	ring    *Ring
	members map[string]*member
	dir     map[string]*entry // ring key -> placement

	// keyMu stripes per-key critical sections so a rebalance moving one
	// key cannot interleave with a concurrent write to the same key.
	keyMu [64]sync.Mutex

	// makeLocal rebuilds a destroyed local member (set by NewLocal).
	makeLocal func(name string) (Library, error)

	// plog is the router's own durability log (nil without PersistDir);
	// see persist.go for the wiring.
	plog     *persist.Log
	snapMu   sync.Mutex  // serializes snapshot cycles (threshold vs Close)
	snapping atomic.Bool // at most one threshold snapshot in flight
	closed   atomic.Bool

	// fgOps counts foreground requests in flight — the rebalance
	// throttle's admission signal.
	fgOps atomic.Int64

	reg *obs.Registry
	cm  *clusterMetrics
}

// New builds a cluster router; add members with AddLibrary. With
// cfg.PersistDir set, New first recovers the previous incarnation's
// directory, membership, and ring from the router log — recovered
// members exist (with their liveness and epochs) but have no serving
// handle until AddLibrary attaches one.
func New(cfg Config) (*Cluster, error) {
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	reg := obs.NewRegistry()
	c := &Cluster{
		cfg:     cfg,
		start:   time.Now(),
		ring:    NewRing(cfg.Seed, cfg.VNodes),
		members: make(map[string]*member),
		dir:     make(map[string]*entry),
		reg:     reg,
	}
	c.cm = newClusterMetrics(reg, c)
	if err := c.openPersist(); err != nil {
		return nil, err
	}
	return c, nil
}

// Metrics exposes the router's registry (the silica_cluster_* families).
func (c *Cluster) Metrics() *obs.Registry { return c.reg }

// AddLibrary registers a member and puts it on the ring. Existing keys
// are not moved; call Rebalance to migrate the ranges the new member
// now owns. For a member recovered from the router log, AddLibrary
// attaches the serving handle to the existing row — liveness and
// epoch were replayed, so no new record is appended.
func (c *Cluster) AddLibrary(name string, lib Library) error {
	c.mu.Lock()
	if m, ok := c.members[name]; ok {
		if m.lib != nil {
			c.mu.Unlock()
			return fmt.Errorf("cluster: library %q already a member", name)
		}
		m.lib = lib
		c.mu.Unlock()
		return nil
	}
	if err := c.ring.Add(name); err != nil {
		c.mu.Unlock()
		return err
	}
	c.members[name] = &member{name: name, lib: lib, alive: true}
	c.mu.Unlock()
	return c.logAppend(faults.OpClusterMember, &persist.RecMember{Name: name, Alive: true, Epoch: 0})
}

// stripe returns the per-key mutex for a ring key.
func (c *Cluster) stripe(key string) *sync.Mutex {
	return &c.keyMu[hash64(c.cfg.Seed^0x5f5f, key)%uint64(len(c.keyMu))]
}

// owners resolves the current live placement for a key: primary then
// replica, skipping dead members. Callers hold at least c.mu.RLock.
func (c *Cluster) owners(key string) []string {
	// Ask for every member: dead ones are filtered, and we only need
	// the first two live distinct libraries.
	all := c.ring.Owners(key, c.ring.Size())
	live := make([]string, 0, 2)
	for _, name := range all {
		if m := c.members[name]; m != nil && m.alive {
			live = append(live, name)
			if len(live) == 2 {
				break
			}
		}
	}
	return live
}

// copyLive resolves a copy-holder only if it is alive AND still the
// incarnation the copy was written to. A rebuilt member answers to the
// same name but holds none of the old bytes; the epoch check keeps a
// stale directory entry from being mistaken for a live copy.
func (c *Cluster) copyLive(name string, epoch uint64) Library {
	if m := c.members[name]; m != nil && m.alive && m.epoch == epoch {
		return m.lib
	}
	return nil
}

// Put routes a write: the object lands on its primary library and a
// redundancy copy lands on the ring successor. The write is
// acknowledged only after every placed copy is staged, so a whole-
// library loss after the ack always leaves a readable copy.
func (c *Cluster) Put(account, name string, data []byte) (int, error) {
	return c.PutCtx(context.Background(), account, name, data)
}

// PutCtx is Put under the caller's ctx.
func (c *Cluster) PutCtx(ctx context.Context, account, name string, data []byte) (int, error) {
	c.fgOps.Add(1)
	defer c.fgOps.Add(-1)
	key := Key(account, name)
	st := c.stripe(key)
	st.Lock()
	defer st.Unlock()

	c.mu.RLock()
	targets := c.owners(key)
	var primary, replica Library
	var pEpoch, rEpoch uint64
	if len(targets) > 0 {
		if m := c.members[targets[0]]; m != nil && m.alive {
			primary, pEpoch = m.lib, m.epoch
		}
	}
	if len(targets) > 1 {
		if m := c.members[targets[1]]; m != nil && m.alive {
			replica, rEpoch = m.lib, m.epoch
		}
	}
	c.mu.RUnlock()
	if primary == nil {
		return 0, ErrNoLibraries
	}

	version, err := primary.PutCtx(ctx, account, name, data)
	if err != nil {
		return 0, err
	}
	c.cm.routed(targets[0], "put")
	e := &entry{account: account, name: name, primary: targets[0], pEpoch: pEpoch,
		version: version, size: int64(len(data))}
	if replica != nil {
		if _, err := replica.PutCtx(ctx, replicaPrefix+account, name, data); err != nil {
			// Un-acknowledged: the caller retries the whole op, and the
			// primary copy is an orphan a later retry overwrites.
			return 0, fmt.Errorf("cluster: redundancy copy on %s: %w", targets[1], err)
		}
		c.cm.routed(targets[1], "put")
		e.replica, e.rEpoch = targets[1], rEpoch
	}
	c.mu.Lock()
	c.dir[key] = e
	c.mu.Unlock()
	// After-mutate, before-ack: the write is not acknowledged until its
	// placement record is durable, so every acked key survives a router
	// restart.
	if err := c.logAppend(faults.OpClusterPlace, &persist.RecDirPlace{
		Account: account, Name: name,
		Primary: e.primary, Replica: e.replica,
		PEpoch: e.pEpoch, REpoch: e.rEpoch,
		Version: e.version, Size: e.size,
	}); err != nil {
		return 0, fmt.Errorf("cluster: placement record for %s/%s: %w", account, name, err)
	}
	return version, nil
}

// Get routes a read to the primary copy-holder; when that library is
// dead (or the read fails there), it falls back to the cross-library
// redundancy copy on the replica holder — the read path a whole-
// library failure exercises.
func (c *Cluster) Get(account, name string) ([]byte, error) {
	return c.GetCtx(context.Background(), account, name)
}

// GetCtx is Get under the caller's ctx. A primary-side ErrNotFound is
// NOT terminal: the replica may still hold the object (a partially
// failed delete, or primary-side loss within the same epoch), so the
// read falls through and only reports NotFound when every reachable
// copy-holder agrees the object is gone.
func (c *Cluster) GetCtx(ctx context.Context, account, name string) ([]byte, error) {
	c.fgOps.Add(1)
	defer c.fgOps.Add(-1)
	key := Key(account, name)
	c.mu.RLock()
	e, ok := c.dir[key]
	var primary, replica Library
	var ent entry
	if ok {
		ent = *e
		primary = c.copyLive(ent.primary, ent.pEpoch)
		if ent.replica != "" {
			replica = c.copyLive(ent.replica, ent.rEpoch)
		}
	}
	c.mu.RUnlock()
	if !ok || ent.deleting {
		// A tombstoned entry is already deleted from the reader's point
		// of view; only the copy cleanup is outstanding.
		return nil, fmt.Errorf("%w: %s/%s", metadata.ErrNotFound, account, name)
	}

	var firstErr error
	consulted, notFound := 0, 0
	if primary != nil {
		consulted++
		data, err := primary.GetCtx(ctx, account, name)
		if err == nil {
			c.cm.routed(ent.primary, "get")
			return data, nil
		}
		if ctx.Err() != nil {
			return nil, err
		}
		if errors.Is(err, metadata.ErrNotFound) {
			notFound++
		} else {
			firstErr = err
		}
	}
	if replica != nil {
		consulted++
		data, err := replica.GetCtx(ctx, replicaPrefix+account, name)
		if err == nil {
			c.cm.routed(ent.replica, "get")
			c.cm.rebuildReads.Inc()
			return data, nil
		}
		if ctx.Err() != nil {
			return nil, err
		}
		if errors.Is(err, metadata.ErrNotFound) {
			notFound++
		} else if firstErr == nil {
			firstErr = err
		}
	}
	// 404 only when every recorded copy was reachable and said NotFound.
	// NotFound from one side while the other is dead or erroring is a
	// half-observed state, not evidence the object is gone; the real
	// error (kept out of the NotFound join so the HTTP layer cannot map
	// it to 404) or an unreadable report surfaces instead.
	if firstErr == nil && consulted > 0 && notFound == consulted &&
		primary != nil && (ent.replica == "" || replica != nil) {
		return nil, fmt.Errorf("%w: %s/%s on every copy-holder", metadata.ErrNotFound, account, name)
	}
	if firstErr == nil {
		firstErr = ErrNoLibraries
	}
	return nil, fmt.Errorf("cluster: %s/%s unreadable on every copy-holder: %w", account, name, firstErr)
}

// Delete removes the object from every live copy-holder and drops the
// directory entry. Copies on dead members die with their library.
func (c *Cluster) Delete(account, name string) error {
	return c.DeleteCtx(context.Background(), account, name)
}

// DeleteCtx is Delete under the caller's ctx. The protocol is
// idempotent and resumable: intent is recorded first (tombstone — from
// here the object reads as gone), then both copies are removed, then
// the entry is dropped. A failure on either side leaves the
// tombstoned entry in place; a retried delete (or a reconcile pass)
// picks up where this one stopped instead of stranding a half-deleted
// key forever.
func (c *Cluster) DeleteCtx(ctx context.Context, account, name string) error {
	c.fgOps.Add(1)
	defer c.fgOps.Add(-1)
	key := Key(account, name)
	st := c.stripe(key)
	st.Lock()
	defer st.Unlock()

	c.mu.RLock()
	e, ok := c.dir[key]
	var primary, replica Library
	var ent entry
	if ok {
		ent = *e
		primary = c.copyLive(ent.primary, ent.pEpoch)
		if ent.replica != "" {
			replica = c.copyLive(ent.replica, ent.rEpoch)
		}
	}
	c.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s/%s", metadata.ErrNotFound, account, name)
	}

	if !ent.deleting {
		c.mu.Lock()
		if cur, ok := c.dir[key]; ok {
			cur.deleting = true
		}
		c.mu.Unlock()
		if err := c.logAppend(faults.OpClusterDelete, &persist.RecDirTombstone{Account: account, Name: name}); err != nil {
			return fmt.Errorf("cluster: delete intent for %s/%s: %w", account, name, err)
		}
	}

	// Remove every reachable copy; NotFound means a previous attempt
	// already got there. Copies on dead or rebuilt (stale-epoch) members
	// died with their incarnation.
	var errs []error
	if primary != nil {
		if err := primary.DeleteCtx(ctx, account, name); err != nil && !errors.Is(err, metadata.ErrNotFound) {
			errs = append(errs, fmt.Errorf("primary %s: %w", ent.primary, err))
		} else {
			c.cm.routed(ent.primary, "delete")
		}
	}
	if replica != nil {
		if err := replica.DeleteCtx(ctx, replicaPrefix+account, name); err != nil && !errors.Is(err, metadata.ErrNotFound) {
			errs = append(errs, fmt.Errorf("replica %s: %w", ent.replica, err))
		} else {
			c.cm.routed(ent.replica, "delete")
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("cluster: delete %s/%s incomplete, retry resumes: %w", account, name, errors.Join(errs...))
	}

	c.mu.Lock()
	delete(c.dir, key)
	c.mu.Unlock()
	if err := c.logAppend(faults.OpClusterDelete, &persist.RecDirDelete{Account: account, Name: name}); err != nil {
		// The copies are gone and the tombstone is durable: a replayed
		// restart recovers a deleting entry that reconcile finishes.
		return fmt.Errorf("cluster: delete record for %s/%s: %w", account, name, err)
	}
	return nil
}

// Flush drains every live library's staging tier concurrently — each
// shard runs its own flush pipeline, so the passes overlap instead of
// serializing on one flushMu.
func (c *Cluster) Flush() error {
	c.mu.RLock()
	libs := make([]Library, 0, len(c.members))
	for _, m := range c.members {
		// Recovered-but-unattached (and detached) members have no handle;
		// there is nothing of theirs to drain from here.
		if m.alive && m.lib != nil {
			libs = append(libs, m.lib)
		}
	}
	c.mu.RUnlock()
	errs := make([]error, len(libs))
	var wg sync.WaitGroup
	for i, lib := range libs {
		wg.Add(1)
		go func(i int, lib Library) {
			defer wg.Done()
			errs[i] = lib.Flush()
		}(i, lib)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// KillLibrary destroys a member mid-run: it leaves the ring, stops
// receiving routes, and its in-memory archive is gone from the
// cluster's point of view. Reads of keys it held fail over to their
// redundancy copies; new writes place around it. The underlying
// gateway is shut down in the background (a real loss would not drain
// politely, but the bytes it flushes are unreachable either way).
func (c *Cluster) KillLibrary(name string) error {
	c.mu.Lock()
	m, ok := c.members[name]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownLibrary, name)
	}
	if !m.alive {
		c.mu.Unlock()
		return fmt.Errorf("cluster: library %q already dead", name)
	}
	m.alive = false
	err := c.ring.Remove(name)
	lib := m.lib
	m.lib = nil
	epoch := m.epoch
	c.mu.Unlock()
	if err != nil {
		return err
	}
	c.cm.kills.Inc()
	if lib != nil { // recovered members may die again before re-attaching
		go lib.Close()
	}
	return c.logAppend(faults.OpClusterMember, &persist.RecMember{Name: name, Alive: false, Epoch: epoch})
}

// DrainLibrary migrates everything off a member, then closes it and
// forgets it: the planned shrink path (contrast KillLibrary). Only the
// affected key ranges move.
func (c *Cluster) DrainLibrary(ctx context.Context, name string) (RebalanceReport, error) {
	c.mu.Lock()
	m, ok := c.members[name]
	if !ok || !m.alive {
		c.mu.Unlock()
		return RebalanceReport{}, fmt.Errorf("%w: %s", ErrUnknownLibrary, name)
	}
	// Off the ring first: new placements avoid it while its data is
	// still readable for the migration below.
	err := c.ring.Remove(name)
	c.mu.Unlock()
	if err != nil {
		return RebalanceReport{}, err
	}
	rep, rerr := c.Rebalance(ctx)
	c.mu.Lock()
	m.alive = false
	lib := m.lib
	m.lib = nil
	delete(c.members, name)
	c.mu.Unlock()
	if lerr := c.logAppend(faults.OpClusterMember, &persist.RecMemberRemove{Name: name}); rerr == nil {
		rerr = lerr
	}
	if lib != nil {
		if cerr := lib.Close(); rerr == nil {
			rerr = cerr
		}
	}
	return rep, rerr
}

// Join adds a new member to a running cluster and migrates the key
// ranges it now owns (the inverse of DrainLibrary).
func (c *Cluster) Join(ctx context.Context, name string, lib Library) (RebalanceReport, error) {
	if err := c.AddLibrary(name, lib); err != nil {
		return RebalanceReport{}, err
	}
	return c.Rebalance(ctx)
}

// RebuildLibrary replaces a killed member with a fresh, empty library
// under the same name and restores full redundancy: every key that
// lost a copy is re-read from its surviving peer copy and re-placed.
// When the cluster was built by NewLocal, lib may be nil and the
// member is rebuilt from the local template.
func (c *Cluster) RebuildLibrary(ctx context.Context, name string, lib Library) (RebalanceReport, error) {
	c.mu.Lock()
	m, ok := c.members[name]
	if !ok {
		c.mu.Unlock()
		return RebalanceReport{}, fmt.Errorf("%w: %s", ErrUnknownLibrary, name)
	}
	if m.alive {
		c.mu.Unlock()
		return RebalanceReport{}, fmt.Errorf("cluster: library %q is alive; drain it instead", name)
	}
	mk := c.makeLocal
	c.mu.Unlock()
	if lib == nil {
		if mk == nil {
			return RebalanceReport{}, fmt.Errorf("cluster: no local factory to rebuild %q", name)
		}
		var err error
		lib, err = mk(name)
		if err != nil {
			return RebalanceReport{}, err
		}
	}
	c.mu.Lock()
	m.lib = lib
	m.alive = true
	m.epoch++ // old-epoch copies recorded against this name are gone
	epoch := m.epoch
	err := c.ring.Add(name)
	c.mu.Unlock()
	if err != nil {
		return RebalanceReport{}, err
	}
	if err := c.logAppend(faults.OpClusterMember, &persist.RecMember{Name: name, Alive: true, Epoch: epoch}); err != nil {
		return RebalanceReport{}, err
	}
	return c.Rebalance(ctx)
}

// RebalanceReport summarizes one reconciliation pass. Errors counts
// every per-key failure (not just the first); ErrorSamples carries up
// to maxErrorSamples of them, in key order, for the HTTP surface and
// silicactl.
type RebalanceReport struct {
	KeysExamined int      `json:"keys_examined"`
	KeysMoved    int      `json:"keys_moved"`
	BytesMoved   int64    `json:"bytes_moved"`
	Lost         int      `json:"lost"` // keys with no surviving copy
	Errors       int      `json:"errors"`
	ErrorSamples []string `json:"error_samples,omitempty"`
}

const (
	maxErrorSamples          = 8
	defaultRebalanceWorkers  = 4
	defaultRebalanceThrottle = 200 * time.Microsecond
)

// Rebalance walks the directory and reconciles every key against the
// current ring: copies move onto the libraries that now own them and
// leave the ones that no longer do. Only keys whose placement changed
// are touched — the minimal-movement property the ring tests pin.
func (c *Cluster) Rebalance(ctx context.Context) (RebalanceReport, error) {
	return c.RebalanceN(ctx, 0)
}

// RebalanceN is Rebalance over an explicit worker count (0 = the
// configured default). Workers pull keys from a shared cursor in
// sorted order; each key's move is serialized against concurrent
// writes by its stripe lock, and no state is shared between keys, so
// workers=1 and workers=N leave byte-identical placement — parallelism
// only changes the interleaving across different keys. A per-key
// failure does not stop the walk: every error is aggregated with
// errors.Join and counted in the report. While foreground requests
// are in flight, each worker pauses RebalanceThrottle per key so the
// maintenance walk yields to admission.
func (c *Cluster) RebalanceN(ctx context.Context, workers int) (RebalanceReport, error) {
	var rep RebalanceReport
	c.mu.RLock()
	keys := make([]string, 0, len(c.dir))
	for k := range c.dir {
		keys = append(keys, k)
	}
	c.mu.RUnlock()
	sort.Strings(keys) // deterministic migration order
	if workers <= 0 {
		workers = c.cfg.RebalanceWorkers
	}
	if workers <= 0 {
		workers = defaultRebalanceWorkers
	}
	if workers > len(keys) {
		workers = len(keys)
	}
	if workers < 1 {
		workers = 1
	}
	throttle := c.cfg.RebalanceThrottle
	if throttle == 0 {
		throttle = defaultRebalanceThrottle
	}

	type keyResult struct {
		examined bool
		moved    bool
		bytes    int64
		err      error
	}
	results := make([]keyResult, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(keys) || ctx.Err() != nil {
					return
				}
				if throttle > 0 && c.fgOps.Load() > 0 {
					time.Sleep(throttle)
				}
				moved, bytes, err := c.reconcileKey(ctx, keys[i])
				results[i] = keyResult{examined: true, moved: moved, bytes: bytes, err: err}
			}
		}()
	}
	wg.Wait()

	// Reduce in key order: the report and the joined error are
	// deterministic regardless of worker interleaving. A key the cursor
	// never reached (cancellation) is untouched and uncounted.
	var errs []error
	for i, r := range results {
		if !r.examined {
			continue
		}
		rep.KeysExamined++
		if r.moved {
			rep.KeysMoved++
			rep.BytesMoved += r.bytes
			c.cm.movedKeys.Inc()
			c.cm.movedBytes.Add(r.bytes)
		}
		if r.err != nil {
			if errors.Is(r.err, errNoCopy) {
				rep.Lost++
			}
			errs = append(errs, fmt.Errorf("cluster: rebalance %s: %w", keys[i], r.err))
		}
	}
	rep.Errors = len(errs)
	for i, e := range errs {
		if i == maxErrorSamples {
			break
		}
		rep.ErrorSamples = append(rep.ErrorSamples, e.Error())
	}
	if rep.Errors > 0 {
		c.cm.rebalanceErrors.Add(int64(rep.Errors))
	}
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	return rep, errors.Join(errs...)
}

// errNoCopy marks a key whose every copy-holder is dead: data loss the
// redundancy placement exists to prevent (requires losing both copy
// holders).
var errNoCopy = errors.New("no surviving copy")

// role addresses one copy of a key.
type role struct {
	lib     string
	account string // plain for primary, replicaPrefix-namespaced for replica
}

// reconcileKey moves one key's copies onto the ring's current owners.
// It holds the key's stripe so concurrent writes to the same key
// serialize with the move.
func (c *Cluster) reconcileKey(ctx context.Context, key string) (moved bool, bytes int64, err error) {
	st := c.stripe(key)
	st.Lock()
	defer st.Unlock()

	c.mu.RLock()
	e, ok := c.dir[key]
	if !ok {
		c.mu.RUnlock()
		return false, 0, nil // deleted while rebalancing
	}
	ent := *e
	targets := c.owners(key)
	// Surviving copies: alive AND the incarnation the copy was written
	// to. A rebuilt member is a valid write target under its old name
	// but holds nothing, so source and destination resolve differently.
	srcPrimary := c.copyLive(ent.primary, ent.pEpoch)
	var srcReplica Library
	if ent.replica != "" {
		srcReplica = c.copyLive(ent.replica, ent.rEpoch)
	}
	dst := make(map[string]Library, len(targets))
	dstEpoch := make(map[string]uint64, len(targets))
	for _, n := range targets {
		if m := c.members[n]; m != nil && m.alive {
			dst[n], dstEpoch[n] = m.lib, m.epoch
		}
	}
	c.mu.RUnlock()

	if ent.deleting {
		// Recorded delete intent without completion (a crashed router or
		// a failed DeleteCtx): finish the delete rather than re-replicate
		// a half-dead object.
		var errs []error
		if srcPrimary != nil {
			if derr := srcPrimary.DeleteCtx(ctx, ent.account, ent.name); derr != nil && !errors.Is(derr, metadata.ErrNotFound) {
				errs = append(errs, fmt.Errorf("primary %s: %w", ent.primary, derr))
			}
		}
		if srcReplica != nil {
			if derr := srcReplica.DeleteCtx(ctx, replicaPrefix+ent.account, ent.name); derr != nil && !errors.Is(derr, metadata.ErrNotFound) {
				errs = append(errs, fmt.Errorf("replica %s: %w", ent.replica, derr))
			}
		}
		if len(errs) > 0 {
			return false, 0, errors.Join(errs...)
		}
		c.mu.Lock()
		delete(c.dir, key)
		c.mu.Unlock()
		return false, 0, c.logAppend(faults.OpClusterDelete, &persist.RecDirDelete{Account: ent.account, Name: ent.name})
	}

	if len(targets) == 0 {
		return false, 0, ErrNoLibraries
	}
	wantPrimary := targets[0]
	wantReplica := ""
	if len(targets) > 1 {
		wantReplica = targets[1]
	}
	if wantPrimary == ent.primary && wantReplica == ent.replica &&
		srcPrimary != nil && (ent.replica == "" || srcReplica != nil) {
		return false, 0, nil // placement already correct and live
	}

	// Read the object once from any surviving copy, primary first.
	var data []byte
	var rerr error
	if srcPrimary != nil {
		data, rerr = srcPrimary.GetCtx(ctx, ent.account, ent.name)
	} else {
		rerr = fmt.Errorf("primary %s dead", ent.primary)
	}
	if rerr != nil && srcReplica != nil {
		data, rerr = srcReplica.GetCtx(ctx, replicaPrefix+ent.account, ent.name)
		if rerr == nil {
			c.cm.rebuildReads.Inc()
		}
	}
	if rerr != nil || data == nil {
		return false, 0, fmt.Errorf("%w (primary %s, replica %s): %v", errNoCopy, ent.primary, ent.replica, rerr)
	}

	// have maps each surviving copy to its handle; stale-epoch copies
	// are simply absent (nothing to read, nothing to retire).
	have := map[role]Library{}
	if srcPrimary != nil {
		have[role{ent.primary, ent.account}] = srcPrimary
	}
	if srcReplica != nil {
		have[role{ent.replica, replicaPrefix + ent.account}] = srcReplica
	}
	newRoles := map[role]bool{{wantPrimary, ent.account}: true}
	if wantReplica != "" {
		newRoles[role{wantReplica, replicaPrefix + ent.account}] = true
	}

	version := ent.version
	for r := range newRoles {
		if have[r] != nil {
			continue // copy already in place
		}
		lib := dst[r.lib]
		if lib == nil {
			return false, 0, fmt.Errorf("target %s died during rebalance", r.lib)
		}
		v, err := lib.PutCtx(ctx, r.account, ent.name, data)
		if err != nil {
			return false, 0, fmt.Errorf("copy to %s: %w", r.lib, err)
		}
		if r.lib == wantPrimary && r.account == ent.account {
			version = v
		}
		moved = true
		bytes += int64(len(data))
	}
	// Remove surviving copies that no longer belong where they are.
	for r, lib := range have {
		if newRoles[r] {
			continue
		}
		if err := lib.DeleteCtx(ctx, r.account, ent.name); err != nil && !errors.Is(err, metadata.ErrNotFound) {
			return moved, bytes, fmt.Errorf("retire copy on %s: %w", r.lib, err)
		}
	}

	c.mu.Lock()
	if cur, ok := c.dir[key]; ok {
		cur.primary, cur.replica, cur.version = wantPrimary, wantReplica, version
		cur.pEpoch, cur.rEpoch = dstEpoch[wantPrimary], dstEpoch[wantReplica]
	}
	c.mu.Unlock()
	if err := c.logAppend(faults.OpClusterPlace, &persist.RecDirPlace{
		Account: ent.account, Name: ent.name,
		Primary: wantPrimary, Replica: wantReplica,
		PEpoch: dstEpoch[wantPrimary], REpoch: dstEpoch[wantReplica],
		Version: version, Size: ent.size,
	}); err != nil {
		return moved, bytes, err
	}
	return moved, bytes, nil
}

// Keys reports the directory size (objects the router has placed).
func (c *Cluster) Keys() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.dir)
}

// Close shuts every live member down. Each local gateway drains its
// queues and flushes its staging tier. With persistence enabled, the
// final snapshot is taken FIRST — while the membership still reflects
// reality — so a graceful shutdown never recovers as a cluster of
// corpses; only then are members closed and the log released.
func (c *Cluster) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	var perr error
	if c.plog != nil && !c.plog.Crashed() {
		perr = c.persistSnapshot()
	}
	c.mu.Lock()
	libs := make([]Library, 0, len(c.members))
	for _, m := range c.members {
		if m.alive && m.lib != nil {
			m.alive = false
			libs = append(libs, m.lib)
			m.lib = nil
		}
	}
	c.mu.Unlock()
	errs := make([]error, len(libs))
	var wg sync.WaitGroup
	for i, lib := range libs {
		wg.Add(1)
		go func(i int, lib Library) {
			defer wg.Done()
			errs[i] = lib.Close()
		}(i, lib)
	}
	wg.Wait()
	if c.plog != nil {
		errs = append(errs, c.plog.Close())
	}
	return errors.Join(append(errs, perr)...)
}

// LibraryStatus is one member's row in the /v1/cluster payload.
type LibraryStatus struct {
	Name        string       `json:"name"`
	Alive       bool         `json:"alive"`
	Frac        float64      `json:"ownership_fraction"`
	PrimaryKeys int          `json:"primary_keys"`
	ReplicaKeys int          `json:"replica_keys"`
	Routed      int64        `json:"routed_ops"`
	State       LibraryState `json:"state"`
}

// Status is the GET /v1/cluster payload: ring ownership plus
// per-library serving state and redundancy-placement accounting.
type Status struct {
	RingVersion     uint64          `json:"ring_version"`
	VNodes          int             `json:"vnodes_per_library"`
	Seed            uint64          `json:"seed"`
	Keys            int             `json:"keys"`
	Replicated      int             `json:"replicated_keys"`  // keys with a live redundancy copy
	Unprotected     int             `json:"unprotected_keys"` // keys with exactly one live copy
	RebuildReads    int64           `json:"rebuild_reads"`    // cross-library redundancy reads
	MovedKeys       int64           `json:"rebalance_moved_keys"`
	MovedBytes      int64           `json:"rebalance_moved_bytes"`
	RebalanceErrors int64           `json:"rebalance_errors"` // per-key rebalance failures, cumulative
	Persist         bool            `json:"persist"`          // router directory is durable
	Libraries       []LibraryStatus `json:"libraries"`
}

// Status assembles the cluster snapshot. Per-library State() may call
// a remote peer; the lock is not held across those calls.
func (c *Cluster) Status() Status {
	c.mu.RLock()
	st := Status{
		RingVersion: c.ring.Version(),
		VNodes:      c.ring.vnodes,
		Seed:        c.cfg.Seed,
		Keys:        len(c.dir),
	}
	fracs := c.ring.OwnershipFractions()
	prim := map[string]int{}
	repl := map[string]int{}
	for _, e := range c.dir {
		prim[e.primary]++
		liveP := c.copyLive(e.primary, e.pEpoch) != nil
		liveR := false
		if e.replica != "" {
			repl[e.replica]++
			liveR = c.copyLive(e.replica, e.rEpoch) != nil
		}
		if liveP && liveR {
			st.Replicated++
		} else if liveP || liveR {
			st.Unprotected++
		}
	}
	names := make([]string, 0, len(c.members))
	for n := range c.members {
		names = append(names, n)
	}
	sort.Strings(names)
	rows := make([]LibraryStatus, 0, len(names))
	libs := make([]Library, 0, len(names))
	for _, n := range names {
		m := c.members[n]
		rows = append(rows, LibraryStatus{
			Name:        n,
			Alive:       m.alive,
			Frac:        fracs[n],
			PrimaryKeys: prim[n],
			ReplicaKeys: repl[n],
			Routed:      c.cm.routedTotal(n),
		})
		if m.alive {
			libs = append(libs, m.lib)
		} else {
			libs = append(libs, nil)
		}
	}
	c.mu.RUnlock()
	st.RebuildReads = c.cm.rebuildReads.Value()
	st.MovedKeys = c.cm.movedKeys.Value()
	st.MovedBytes = c.cm.movedBytes.Value()
	st.RebalanceErrors = c.cm.rebalanceErrors.Value()
	st.Persist = c.plog != nil
	for i, lib := range libs {
		if lib != nil {
			rows[i].State = lib.State()
		}
	}
	st.Libraries = rows
	return st
}

// Libraries lists member names, sorted, with liveness.
func (c *Cluster) Libraries() map[string]bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]bool, len(c.members))
	for n, m := range c.members {
		out[n] = m.alive
	}
	return out
}

// PrimaryCounts reports how many keys each live member holds as
// primary (the kill drill picks the biggest holder as its victim).
func (c *Cluster) PrimaryCounts() map[string]int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := map[string]int{}
	for _, e := range c.dir {
		out[e.primary]++
	}
	return out
}

// Degraded reports whether any member is dead or any key has lost its
// redundancy copy.
func (c *Cluster) Degraded() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, m := range c.members {
		if !m.alive {
			return true
		}
	}
	for _, e := range c.dir {
		if c.copyLive(e.primary, e.pEpoch) == nil {
			return true
		}
		if e.replica != "" && c.copyLive(e.replica, e.rEpoch) == nil {
			return true
		}
	}
	return false
}

// String renders a one-line summary.
func (c *Cluster) String() string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	alive := 0
	for _, m := range c.members {
		if m.alive {
			alive++
		}
	}
	return fmt.Sprintf("cluster{libraries: %d live / %d, keys: %d, ring v%d}",
		alive, len(c.members), len(c.dir), c.ring.Version())
}

var _ gateway.API = (*Cluster)(nil)
