package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"silica/internal/gateway"
)

// LocalLibrary is an in-process shard: its own gateway over its own
// service, so its queues, flush scheduler, and platter index are
// private — no cross-shard flushMu or index contention.
type LocalLibrary struct{ G *gateway.Gateway }

func (l LocalLibrary) PutCtx(ctx context.Context, account, name string, data []byte) (int, error) {
	return l.G.PutCtx(ctx, account, name, data)
}
func (l LocalLibrary) GetInto(ctx context.Context, account, name string, dst []byte) ([]byte, error) {
	return l.G.GetInto(ctx, account, name, dst)
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

// LocalConfig builds an in-process cluster: N library shards, each a
// private gateway.Gateway cloned from the template, behind one router.
type LocalConfig struct {
	// Libraries is the shard count (>= 1).
	Libraries int
	// Cluster shapes the router (seed, vnodes, persistence).
	Cluster Config
	// Gateway is the per-shard template. Each shard's copy gets a
	// distinct service seed (template seed XOR shard index) so shards
	// write distinct media streams, and its own persist subdirectory
	// when PersistDir is set. Everything else — queues, watermarks,
	// repair, backend — is per shard by construction.
	Gateway gateway.Config
	// PersistDir, when set, roots per-shard durability directories
	// (PersistDir/lib-<i>); Gateway.Service.PersistDir is overridden.
	// The router's own log lands in PersistDir/router unless
	// Cluster.PersistDir names one explicitly.
	PersistDir string
}

// libName names shard i.
func libName(i int) string { return fmt.Sprintf("lib-%d", i) }

// NewLocal builds the router and its N in-process libraries, and
// installs a rebuild factory: RebuildLibrary(ctx, name, nil) replaces
// a killed shard with a fresh, empty one (wiping its persist
// subdirectory — the destroyed-library semantics of the drill).
func NewLocal(lc LocalConfig) (*Cluster, error) {
	if lc.Libraries < 1 {
		return nil, fmt.Errorf("cluster: need at least one library, got %d", lc.Libraries)
	}
	ccfg := lc.Cluster
	if ccfg.PersistDir == "" && lc.PersistDir != "" {
		ccfg.PersistDir = RouterPersistDir(lc.PersistDir)
	}
	c, err := New(ccfg)
	if err != nil {
		return nil, err
	}
	indexOf := make(map[string]int, lc.Libraries)
	for i := 0; i < lc.Libraries; i++ {
		indexOf[libName(i)] = i
	}
	recovered := c.Libraries() // liveness of members replayed from the router log
	build := func(name string, wipe bool) (Library, error) {
		i, ok := indexOf[name]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnknownLibrary, name)
		}
		cfg := lc.Gateway
		cfg.Service.Seed = lc.Gateway.Service.Seed ^ uint64(i+1)<<32
		if lc.PersistDir != "" {
			dir := filepath.Join(lc.PersistDir, name)
			if wipe {
				if err := os.RemoveAll(dir); err != nil {
					return nil, fmt.Errorf("cluster: wiping %s: %w", dir, err)
				}
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
			cfg.Service.PersistDir = dir
		}
		g, err := gateway.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: building %s: %w", name, err)
		}
		return LocalLibrary{G: g}, nil
	}
	for i := 0; i < lc.Libraries; i++ {
		name := libName(i)
		if alive, ok := recovered[name]; ok && !alive {
			// The router log says this member was killed: leave it dead
			// (its epoch pins the old copies as gone) until an explicit
			// RebuildLibrary revives it with a wiped, epoch-bumped shard.
			continue
		}
		lib, err := build(name, false)
		if err != nil {
			c.Close()
			return nil, err
		}
		if err := c.AddLibrary(name, lib); err != nil {
			lib.Close()
			c.Close()
			return nil, err
		}
	}
	c.makeLocal = func(name string) (Library, error) { return build(name, true) }
	return c, nil
}

// NewRemote builds a router over peer silicad daemons: one
// RemoteLibrary per URL, named by the URL. Peers get the retrying
// client so router fan-out rides out transient 429/503s.
func NewRemote(cfg Config, urls []string) (*Cluster, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("cluster: need at least one peer URL")
	}
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	recovered := c.Libraries()
	for _, u := range urls {
		if alive, ok := recovered[u]; ok && !alive {
			continue // killed before the restart; revive via RebuildLibrary
		}
		cl := gateway.NewClient(u)
		pol := gateway.DefaultRetryPolicy()
		pol.Seed = cfg.Seed ^ hash64(cfg.Seed, u)
		cl.Retry = pol
		cl.Instrument(c.reg)
		if err := c.AddLibrary(u, NewRemoteLibrary(cl)); err != nil {
			return nil, err
		}
	}
	return c, nil
}
