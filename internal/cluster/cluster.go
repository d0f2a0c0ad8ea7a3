package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
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
	"silica/internal/stats"
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
// A remote member's state is read off its /metrics, which has no family
// for Staging.OldestArrival, so that field reads 0 for a -peers member.
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

// RemoteLibrary is a peer silicad reached over HTTP. The shared
// bounded transport in gateway.Client keeps rebuild/router fan-out on
// pooled connections: the client reads every reply, a delete's and a
// flush's acknowledgment included, to EOF before closing it, so each
// connection goes back to the pool instead of being torn down. The
// retry policy rides out transient 429/503s.
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
	samples, err := r.C.Metrics()
	if err != nil {
		return st
	}
	// sum adds every sample of a family: the gateway counters carry one
	// child per request class.
	sum := func(name string) (v float64) {
		for _, s := range samples {
			if s.Name == name {
				v += s.Value
			}
		}
		return v
	}
	written, _ := obs.FindSample(samples, "silica_service_platters_total", map[string]string{"event": "written"})
	st.InFlight = int64(sum("silica_gateway_admitted_total") - sum("silica_gateway_completed_total"))
	st.Flushes = int64(sum("silica_gateway_flushes_total"))
	st.Platters = int(written.Value)
	st.Staging = staging.Usage{
		Used:     int64(sum("silica_staging_used_bytes")),
		Reserved: int64(sum("silica_staging_reserved_bytes")),
		Capacity: int64(sum("silica_staging_capacity_bytes")),
		Peak:     int64(sum("silica_staging_peak_bytes")),
		Pending:  int(sum("silica_staging_pending_files")),
	}
	return st
}

// member is one library: the ring and Cluster.members know it by name;
// alive flips false on kill/drain and the router stops placing data
// there. epoch increments every time the member is rebuilt from
// scratch — a fresh library under an old name carries none of the old
// bytes, and copies recorded against an earlier epoch must be treated
// as gone.
type member struct {
	lib   Library
	alive bool
	epoch uint64
}

// entry records where one object's copies live: the placement record
// as logged (RecDirPlace) plus Deleting, the recorded delete intent —
// reads treat the object as gone, and a retry or reconcile pass
// finishes removing the copies before the entry is dropped. Either copy
// alone reconstructs the object. PEpoch/REpoch pin the member
// incarnation each copy was written to: a copy on a member whose epoch
// has since advanced does not exist.
type entry = persist.RouterEntry

// slot is one copy of a key: its holder and the holder's epoch when
// the copy was written. A key has two slots, primary then replica; the
// primary holds the object under its own account, the replica under
// the replicaPrefix namespace. Replica "" means one member could take
// a copy when the key was placed.
type slot struct {
	lib   string
	epoch uint64
}

// slotRole names slot i in error messages.
var slotRole = [2]string{"primary", "replica"}

func slotsOf(e *entry) [2]slot {
	return [2]slot{{e.Primary, e.PEpoch}, {e.Replica, e.REpoch}}
}

func setSlots(e *entry, s [2]slot) {
	e.Primary, e.PEpoch, e.Replica, e.REpoch = s[0].lib, s[0].epoch, s[1].lib, s[1].epoch
}

// slotAccount is the account slot i's copy is stored under.
func slotAccount(account string, i int) string {
	if i == 1 {
		return replicaPrefix + account
	}
	return account
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
}

// Cluster is the placement/router tier. Create with New, add members
// with AddLibrary, stop with Close.
type Cluster struct {
	cfg Config

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
	c.members[name] = &member{lib: lib, alive: true}
	c.mu.Unlock()
	return c.logAppend(faults.OpClusterMember, &persist.RecMember{Name: name, Alive: true, Epoch: 0})
}

// lockKey takes the per-key mutex (stripe) for a ring key and returns
// its unlock.
func (c *Cluster) lockKey(key string) func() {
	st := &c.keyMu[hash64(c.cfg.Seed^0x5f5f, key)%uint64(len(c.keyMu))]
	st.Lock()
	return st.Unlock
}

// targets resolves where a key's copies belong now: the first two
// distinct members on the ring that are alive and attached, primary
// then replica, with the handle each is written through. An unused
// slot has lib "" and a nil handle. A member recovered from the router
// log keeps its ring position but is skipped until AddLibrary gives it
// a handle: placing a copy there would fail the put or, on the replica
// side, acknowledge it with one copy.
func (c *Cluster) targets(key string) (want [2]slot, libs [2]Library) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	// Ask for every member: dead and unattached ones are filtered, and
	// we only need the first two distinct libraries that can serve.
	n := 0
	for _, name := range c.ring.Owners(key, c.ring.Size()) {
		if m := c.members[name]; m != nil && m.alive && m.lib != nil {
			want[n], libs[n] = slot{name, m.epoch}, m.lib
			if n++; n == len(want) {
				break
			}
		}
	}
	return want, libs
}

// copyLive resolves a copy-holder only if it is alive AND still the
// incarnation the copy was written to. A rebuilt member answers to the
// same name but holds none of the old bytes; the epoch check keeps a
// stale directory entry from being mistaken for a live copy.
func (c *Cluster) copyLive(s slot) Library {
	if m := c.members[s.lib]; m != nil && m.alive && m.epoch == s.epoch {
		return m.lib
	}
	return nil
}

// resolve copies key's directory entry and the live handle of each of
// its copies (nil where the copy died with its holder's incarnation or
// the slot is unused).
func (c *Cluster) resolve(key string) (e entry, live [2]Library, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cur, ok := c.dir[key]
	if !ok {
		return e, live, false
	}
	for i, s := range slotsOf(cur) {
		live[i] = c.copyLive(s)
	}
	return *cur, live, true
}

// place installs e as key's placement and makes it durable. Callers
// hold key's stripe and acknowledge only after it returns nil, so every
// acked placement survives a router restart.
func (c *Cluster) place(key string, e entry) error {
	c.mu.Lock()
	c.dir[key] = &e
	c.mu.Unlock()
	return c.logAppend(faults.OpClusterPlace, &e.RecDirPlace)
}

// removeCopies deletes every live copy of e, where NotFound means an
// earlier attempt already got there, then drops key's entry and
// records the completion. Copies on dead or rebuilt (stale-epoch)
// members died with their incarnation. dropped is false when a copy
// could not be deleted: err joins those failures and the tombstoned
// entry stays for a retry or a reconcile pass to finish.
func (c *Cluster) removeCopies(ctx context.Context, key string, e entry, live [2]Library) (dropped bool, err error) {
	var errs []error
	for i, lib := range live {
		if lib == nil {
			continue
		}
		holder := slotsOf(&e)[i].lib
		if err := lib.DeleteCtx(ctx, slotAccount(e.Account, i), e.Name); err != nil && !errors.Is(err, metadata.ErrNotFound) {
			errs = append(errs, fmt.Errorf("%s %s: %w", slotRole[i], holder, err))
		} else {
			c.cm.routed(holder, "delete")
		}
	}
	if len(errs) > 0 {
		return false, errors.Join(errs...)
	}
	c.mu.Lock()
	delete(c.dir, key)
	c.mu.Unlock()
	return true, c.logAppend(faults.OpClusterDelete, &persist.RecDirDelete{Account: e.Account, Name: e.Name})
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
	defer c.lockKey(key)()

	want, libs := c.targets(key)
	if libs[0] == nil {
		return 0, ErrNoLibraries
	}
	e := entry{RecDirPlace: persist.RecDirPlace{Account: account, Name: name, Size: int64(len(data))}}
	for i, lib := range libs {
		if lib == nil {
			break
		}
		v, err := lib.PutCtx(ctx, slotAccount(account, i), name, data)
		if err != nil {
			if i == 0 {
				return 0, err
			}
			// Un-acknowledged: the caller retries the whole op, and the
			// primary copy is an orphan a later retry overwrites.
			return 0, fmt.Errorf("cluster: redundancy copy on %s: %w", want[i].lib, err)
		}
		c.cm.routed(want[i].lib, "put")
		if i == 0 {
			e.Version = v
		}
	}
	setSlots(&e, want)
	if err := c.place(key, e); err != nil {
		return 0, fmt.Errorf("cluster: placement record for %s/%s: %w", account, name, err)
	}
	return e.Version, nil
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
	e, live, ok := c.resolve(Key(account, name))
	if !ok || e.Deleting {
		// A tombstoned entry is already deleted from the reader's point
		// of view; only the copy cleanup is outstanding.
		return nil, fmt.Errorf("%w: %s/%s", metadata.ErrNotFound, account, name)
	}

	var firstErr error
	held, notFound := 0, 0
	for i, s := range slotsOf(&e) {
		if s.lib != "" {
			held++
		}
		if live[i] == nil {
			continue
		}
		data, err := live[i].GetCtx(ctx, slotAccount(account, i), name)
		if err == nil {
			c.cm.routed(s.lib, "get")
			if i == 1 {
				c.cm.rebuildReads.Inc()
			}
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
	if notFound == held {
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
	defer c.lockKey(key)()

	e, live, ok := c.resolve(key)
	if !ok {
		return fmt.Errorf("%w: %s/%s", metadata.ErrNotFound, account, name)
	}
	if !e.Deleting {
		c.mu.Lock()
		c.dir[key].Deleting = true
		c.mu.Unlock()
		if err := c.logAppend(faults.OpClusterDelete, &persist.RecDirTombstone{Account: account, Name: name}); err != nil {
			return fmt.Errorf("cluster: delete intent for %s/%s: %w", account, name, err)
		}
	}
	dropped, err := c.removeCopies(ctx, key, e, live)
	if !dropped {
		return fmt.Errorf("cluster: delete %s/%s incomplete, retry resumes: %w", account, name, err)
	}
	if err != nil {
		// The copies are gone and the tombstone is durable: a replayed
		// restart recovers a deleting entry that reconcile finishes.
		return fmt.Errorf("cluster: delete record for %s/%s: %w", account, name, err)
	}
	return nil
}

// eachLive runs fn concurrently on the handle of every live member
// that has one and joins the errors. Recovered-but-unattached (and
// detached) members have no handle; there is nothing of theirs to
// reach from here. With release set, each such member is marked dead
// and its handle dropped first (Close).
func (c *Cluster) eachLive(release bool, fn func(Library) error) error {
	c.mu.Lock()
	var libs []Library
	for _, m := range c.members {
		if m.alive && m.lib != nil {
			libs = append(libs, m.lib)
			if release {
				m.alive, m.lib = false, nil
			}
		}
	}
	c.mu.Unlock()
	errs := make([]error, len(libs))
	var wg sync.WaitGroup
	for i, lib := range libs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(lib)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Flush drains every live library's staging tier concurrently — each
// shard runs its own flush pipeline, so the passes overlap instead of
// serializing on one flushMu.
func (c *Cluster) Flush() error {
	return c.eachLive(false, Library.Flush)
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
	lib, epoch := m.lib, m.epoch
	m.alive, m.lib = false, nil
	err := c.ring.Remove(name)
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
	rep, rerr := c.Rebalance(ctx, 0)
	c.mu.Lock()
	lib := m.lib
	m.alive, m.lib = false, nil
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
	return c.Rebalance(ctx, 0)
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
	m.lib, m.alive = lib, true
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
	return c.Rebalance(ctx, 0)
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
	maxErrorSamples = 8
	// rebalanceWorkers is the walk's width when the caller asks for 0.
	rebalanceWorkers = 4
	// rebalanceThrottle is the per-key pause a rebalance worker takes
	// while foreground requests are in flight.
	rebalanceThrottle = 200 * time.Microsecond
)

// Rebalance walks the directory and reconciles every key against the
// current ring: copies move onto the libraries that now own them and
// leave the ones that no longer do. Only keys whose placement changed
// are touched — the minimal-movement property the ring tests pin.
//
// workers bounds the parallel walk (0 = default 4). Workers pull keys
// from a shared cursor in sorted order; each key's move is serialized
// against concurrent writes by its stripe lock, and no state is shared
// between keys, so workers=1 and workers=N leave byte-identical
// placement — parallelism only changes the interleaving across
// different keys. A per-key failure does not stop the walk: every
// error is aggregated with errors.Join and counted in the report.
// While foreground requests are in flight, each worker pauses 200µs
// per key so the maintenance walk yields to admission.
func (c *Cluster) Rebalance(ctx context.Context, workers int) (RebalanceReport, error) {
	var rep RebalanceReport
	c.mu.RLock()
	keys := make([]string, 0, len(c.dir))
	for k := range c.dir {
		keys = append(keys, k)
	}
	c.mu.RUnlock()
	sort.Strings(keys) // deterministic migration order
	if workers <= 0 {
		workers = rebalanceWorkers
	}
	workers = max(1, min(workers, len(keys)))

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
				if c.fgOps.Load() > 0 {
					time.Sleep(rebalanceThrottle)
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
	for _, e := range errs[:min(len(errs), maxErrorSamples)] {
		rep.ErrorSamples = append(rep.ErrorSamples, e.Error())
	}
	c.cm.rebalanceErrors.Add(int64(rep.Errors))
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	return rep, errors.Join(errs...)
}

// errNoCopy marks a key whose every copy-holder is dead: data loss the
// redundancy placement exists to prevent (requires losing both copy
// holders).
var errNoCopy = errors.New("no surviving copy")

// reconcileKey moves one key's copies onto the ring's current owners.
// It holds the key's stripe so concurrent writes to the same key
// serialize with the move.
func (c *Cluster) reconcileKey(ctx context.Context, key string) (moved bool, bytes int64, err error) {
	defer c.lockKey(key)()

	// Surviving copies: alive AND the incarnation the copy was written
	// to. A rebuilt member is a valid write target under its old name
	// but holds nothing, so source and destination resolve differently.
	ent, have, ok := c.resolve(key)
	if !ok {
		return false, 0, nil // deleted while rebalancing
	}
	if ent.Deleting {
		// Recorded delete intent without completion (a crashed router or
		// a failed DeleteCtx): finish the delete rather than re-replicate
		// a half-dead object.
		_, err := c.removeCopies(ctx, key, ent, have)
		return false, 0, err
	}

	want, dst := c.targets(key)
	if want[0].lib == "" {
		return false, 0, ErrNoLibraries
	}
	cur := slotsOf(&ent)
	var kept [2]bool // slot i's copy survives where it belongs
	for i := range cur {
		kept[i] = have[i] != nil && want[i].lib == cur[i].lib
	}
	if kept[0] && (kept[1] || want[1].lib == "" && cur[1].lib == "") {
		return false, 0, nil // placement already correct and live
	}

	// Read the object once from any surviving copy, primary first.
	var data []byte
	rerr := fmt.Errorf("primary %s dead", ent.Primary)
	for i, lib := range have {
		if lib == nil {
			continue
		}
		if data, rerr = lib.GetCtx(ctx, slotAccount(ent.Account, i), ent.Name); rerr == nil {
			if i == 1 {
				c.cm.rebuildReads.Inc()
			}
			break
		}
	}
	if rerr != nil || data == nil {
		return false, 0, fmt.Errorf("%w (primary %s, replica %s): %v", errNoCopy, ent.Primary, ent.Replica, rerr)
	}

	// Stale-epoch copies are simply absent from have: nothing to read,
	// nothing to retire.
	for i, w := range want {
		if w.lib == "" || kept[i] {
			continue // no copy wanted, or already in place
		}
		v, err := dst[i].PutCtx(ctx, slotAccount(ent.Account, i), ent.Name, data)
		if err != nil {
			return false, 0, fmt.Errorf("copy to %s: %w", w.lib, err)
		}
		if i == 0 {
			ent.Version = v
		}
		moved = true
		bytes += int64(len(data))
	}
	// Remove surviving copies that no longer belong where they are.
	for i, lib := range have {
		if lib == nil || kept[i] {
			continue
		}
		if err := lib.DeleteCtx(ctx, slotAccount(ent.Account, i), ent.Name); err != nil && !errors.Is(err, metadata.ErrNotFound) {
			return moved, bytes, fmt.Errorf("retire copy on %s: %w", cur[i].lib, err)
		}
	}

	setSlots(&ent, want)
	return moved, bytes, c.place(key, ent)
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
	err := c.eachLive(true, Library.Close)
	if c.plog != nil {
		err = errors.Join(err, c.plog.Close())
	}
	return errors.Join(err, perr)
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
	held := [2]map[string]int{{}, {}} // keys per member, by slot
	for _, e := range c.dir {
		live := 0
		for i, s := range slotsOf(e) {
			if s.lib == "" {
				continue
			}
			held[i][s.lib]++
			if c.copyLive(s) != nil {
				live++
			}
		}
		switch live {
		case 2:
			st.Replicated++
		case 1:
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
			PrimaryKeys: held[0][n],
			ReplicaKeys: held[1][n],
			Routed:      c.cm.routedTotal(n),
		})
		libs = append(libs, c.copyLive(slot{n, m.epoch})) // nil unless alive
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

// String renders the status for an operator, as silicactl cluster and
// silica-load print it: ring and directory durability, redundancy and
// rebalance accounting, then one row per library.
func (st Status) String() string {
	var b strings.Builder
	durability := "in-memory directory (lost on router restart)"
	if st.Persist {
		durability = "durable directory (recovers across router restarts)"
	}
	fmt.Fprintf(&b, "ring v%d, seed %d, %d vnodes/library\n", st.RingVersion, st.Seed, st.VNodes)
	fmt.Fprintf(&b, "persist   %s\n", durability)
	fmt.Fprintf(&b, "keys      %d placed: %d fully replicated, %d unprotected\n",
		st.Keys, st.Replicated, st.Unprotected)
	fmt.Fprintf(&b, "activity  %d cross-library rebuild reads, %d keys / %s moved by rebalance, %d rebalance errors\n",
		st.RebuildReads, st.MovedKeys, stats.FormatBytes(float64(st.MovedBytes)), st.RebalanceErrors)
	fmt.Fprintf(&b, "%-12s %-6s %6s %9s %9s %8s %9s %10s %8s\n",
		"library", "state", "own%", "primaries", "replicas", "routed", "in-flight", "staging", "flushes")
	for _, l := range st.Libraries {
		state := "alive"
		if !l.Alive {
			state = "dead"
		} else if l.State.Degraded {
			state = "degr"
		}
		fmt.Fprintf(&b, "%-12s %-6s %5.1f%% %9d %9d %8d %9d %10s %8d\n",
			l.Name, state, 100*l.Frac, l.PrimaryKeys, l.ReplicaKeys, l.Routed,
			l.State.InFlight, stats.FormatBytes(float64(l.State.Staging.Used)), l.State.Flushes)
	}
	return b.String()
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
		out[e.Primary]++
	}
	return out
}

// Degraded reports whether any member is dead or has no serving handle
// (recovered from the router log but never attached), or any key has
// lost a copy.
func (c *Cluster) Degraded() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, m := range c.members {
		if !m.alive || m.lib == nil {
			return true
		}
	}
	for _, e := range c.dir {
		for _, s := range slotsOf(e) {
			if s.lib != "" && c.copyLive(s) == nil {
				return true
			}
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
