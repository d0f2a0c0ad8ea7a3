package cluster

import (
	"fmt"
	"path/filepath"

	"silica/internal/faults"
	"silica/internal/persist"
)

// Router durability wiring. The router's authorities — the placement
// directory, the membership roster with its epochs, and the ring
// configuration — go through the same WAL + fuzzy-snapshot protocol
// the service uses (internal/persist), with router-specific record
// types:
//
//	RecRingConfig    seed + vnodes, appended once on a fresh directory
//	RecDirPlace      a placement ack (put, overwrite, rebalance move)
//	RecDirTombstone  delete intent, appended before any copy is touched
//	RecDirDelete     delete completion: both copies gone, entry dropped
//	RecMember        membership upsert (add / kill / rebuild epoch bump)
//	RecMemberRemove  drain: the member is forgotten
//
// Ordering is mutate → append → fsync → ack, per key under its stripe
// lock, so "acknowledged" implies "record durable" and replay in LSN
// order reconstructs exactly the acknowledged directory.

// routerFingerprint names the router log format; seed/vnodes
// compatibility is checked against the recovered RecRingConfig.
const routerFingerprint = "silica-router-v1"

// defaultSnapshotEvery is the WAL-records-per-snapshot threshold when
// Config.PersistSnapshotEvery is zero.
const defaultSnapshotEvery = 4096

// RouterPersistDir is the router log's subdirectory under a daemon's
// -persist-dir root (members use <root>/lib-<i>).
func RouterPersistDir(base string) string { return filepath.Join(base, "router") }

// openPersist recovers the router directory when Config.PersistDir is
// set: members come back with their liveness and epochs (serving
// handles attach via AddLibrary), every acknowledged placement and
// tombstone comes back into c.dir, and a fresh directory is seeded
// with this router's ring configuration.
func (c *Cluster) openPersist() error {
	if c.cfg.PersistDir == "" {
		return nil
	}
	l, st, err := persist.OpenRouter(persist.Options{
		Dir:         c.cfg.PersistDir,
		Fingerprint: routerFingerprint,
		Faults:      c.cfg.Faults,
		Metrics:     c.reg,
	})
	if err != nil {
		return err
	}
	if st.HasConfig && (st.Seed != c.cfg.Seed || st.VNodes != c.ring.vnodes) {
		_ = l.Close()
		return fmt.Errorf("cluster: %s was written under ring seed=%d vnodes=%d; this router runs seed=%d vnodes=%d",
			c.cfg.PersistDir, st.Seed, st.VNodes, c.cfg.Seed, c.ring.vnodes)
	}
	for _, m := range st.Members {
		c.members[m.Name] = &member{alive: m.Alive, epoch: m.Epoch}
		if m.Alive {
			if err := c.ring.Add(m.Name); err != nil {
				_ = l.Close()
				return err
			}
		}
	}
	for _, en := range st.Entries {
		c.dir[keyOf(&en)] = &en
	}
	c.plog = l
	if !st.HasConfig {
		if err := c.logAppend(faults.OpClusterMember, &persist.RecRingConfig{Seed: c.cfg.Seed, VNodes: c.ring.vnodes}); err != nil {
			_ = l.Close()
			c.plog = nil
			return err
		}
	}
	return nil
}

// logAppend makes one router mutation durable: fault check (the
// cluster.* kill points of the crash drills), append, group-commit
// fsync. Callers acknowledge their operation only after it returns
// nil. A nil log (persistence disabled) accepts everything.
func (c *Cluster) logAppend(op string, rec persist.Record) error {
	if c.plog == nil {
		return nil
	}
	if err := c.cfg.Faults.Check(op, -1, -1, -1); err != nil {
		return err
	}
	if _, err := c.plog.Append(rec); err != nil {
		return err
	}
	if err := c.plog.Sync(); err != nil {
		return err
	}
	c.maybeSnapshot()
	return nil
}

// exportRouterState snapshots the directory and membership under the
// read lock (CommitRouterSnapshot sorts them).
func (c *Cluster) exportRouterState() *persist.RouterState {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := &persist.RouterState{Seed: c.cfg.Seed, VNodes: c.ring.vnodes, HasConfig: true}
	st.Members = make([]persist.RouterMember, 0, len(c.members))
	for n, m := range c.members {
		st.Members = append(st.Members, persist.RouterMember{Name: n, Alive: m.alive, Epoch: m.epoch})
	}
	st.Entries = make([]persist.RouterEntry, 0, len(c.dir))
	for _, e := range c.dir {
		st.Entries = append(st.Entries, *e)
	}
	return st
}

// persistSnapshot runs one full snapshot cycle: rotate the WAL at a
// cut, export the live state (traffic continues; records racing the
// export land past the cut and replay), commit, GC.
func (c *Cluster) persistSnapshot() error {
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	cut, err := c.plog.BeginSnapshot()
	if err != nil {
		return err
	}
	return c.plog.CommitRouterSnapshot(cut, c.exportRouterState())
}

// maybeSnapshot starts a snapshot cycle once enough records have
// accumulated. Best-effort and single-flight: the WAL remains the
// durable truth, so a skipped or failed threshold snapshot costs only
// replay time.
func (c *Cluster) maybeSnapshot() {
	every := c.cfg.PersistSnapshotEvery
	if every <= 0 {
		every = defaultSnapshotEvery
	}
	if c.plog.AppendsSinceSnapshot() < every {
		return
	}
	if !c.snapping.CompareAndSwap(false, true) {
		return
	}
	defer c.snapping.Store(false)
	_ = c.persistSnapshot()
}

// CrashPersist freezes the router log in place — the in-process
// analogue of kill -9 at this instant. Buffered unsynced records never
// reach the disk, and every subsequent mutation fails its durability
// append, so nothing more is acknowledged. The crash drills reopen
// the directory with a fresh New afterwards.
func (c *Cluster) CrashPersist() {
	if c.plog != nil {
		c.plog.Crash()
	}
}

// PersistCrashed reports whether a kill point froze the router log.
func (c *Cluster) PersistCrashed() bool { return c.plog != nil && c.plog.Crashed() }

// PersistLog exposes the router's log for tests and drills (nil when
// persistence is disabled).
func (c *Cluster) PersistLog() *persist.Log { return c.plog }

// Detach surrenders every member's serving handle without closing it
// and returns them by name. The cluster is left inert — members exist
// but can serve nothing — which is exactly the kill-router drill's
// need: the router process "dies" (CrashPersist + Detach) while its
// member libraries keep running for the successor router, rebuilt from
// the same persist directory, to re-attach via AddLibrary.
func (c *Cluster) Detach() map[string]Library {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]Library)
	for n, m := range c.members {
		if m.lib != nil {
			out[n] = m.lib
			m.lib = nil
		}
	}
	return out
}
