package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"silica/internal/cluster"
	"silica/internal/gateway"
	"silica/internal/obs"
	"silica/internal/service"
)

// Pinned configuration (README "Design rules"): the product defaults
// with every timer-driven background activity turned off, so nothing
// runs inside a timed phase that the benchmark did not ask for.
const (
	serviceSeed = 1 // service and cluster seed; -seed drives inputs only
	numClients  = 2 // closed-loop clients == connections == nproc of the reference box
	clusterLibs = 3
	// noSnapshots puts the WAL-records-per-snapshot threshold out of
	// reach: a threshold snapshot would otherwise land inside whichever
	// timed put or flush crosses it.
	noSnapshots = 1 << 40
)

// gatewayConfig is one library's pinned configuration on dir.
func gatewayConfig(dir string, seed uint64) gateway.Config {
	cfg := gateway.DefaultConfig()
	cfg.Service.Seed = seed
	cfg.Service.CodecWorkers = 0 // product default: GOMAXPROCS
	cfg.Service.PersistDir = dir
	cfg.Service.PersistSnapshotEvery = noSnapshots
	cfg.FlushAge = 0 // flush scheduler off: the benchmark calls Flush itself
	cfg.FlushBytes = 1 << 40
	cfg.DisableRepair = true // no scrubber, no rebuilder
	return cfg
}

// stack is the server side of one run, built in-process: one library
// (or a router over three) behind a loopback HTTP listener, plus the
// client that drives it.
type stack struct {
	dir    string
	gws    []*gateway.Gateway
	router *cluster.Cluster // nil on a single library
	srv    *http.Server
	served chan error
	client *gateway.Client
}

func newSingleStack(dir string) (*stack, error) {
	g, err := gateway.New(gatewayConfig(dir, serviceSeed))
	if err != nil {
		return nil, err
	}
	st := &stack{dir: dir, gws: []*gateway.Gateway{g}}
	if err := st.serve(g.Handler()); err != nil {
		g.Close()
		return nil, err
	}
	return st, nil
}

// newClusterStack builds the router from cluster.New + AddLibrary
// rather than cluster.NewLocal so the benchmark keeps every member's
// gateway, and with it every member's metrics registry. Without persist
// neither the router nor its members keep a log (see README, "fsync").
func newClusterStack(dir string, persist bool) (*stack, error) {
	memberDir := func(name string) string {
		if !persist {
			return ""
		}
		return filepath.Join(dir, name)
	}
	routerDir := ""
	if persist {
		routerDir = cluster.RouterPersistDir(dir)
	}
	c, err := cluster.New(cluster.Config{
		Seed:                 serviceSeed,
		PersistDir:           routerDir,
		PersistSnapshotEvery: noSnapshots,
	})
	if err != nil {
		return nil, err
	}
	st := &stack{dir: dir, router: c}
	for i := 0; i < clusterLibs; i++ {
		name := fmt.Sprintf("lib-%d", i)
		g, err := gateway.New(gatewayConfig(memberDir(name), serviceSeed^uint64(i+1)<<32))
		if err != nil {
			c.Close()
			return nil, err
		}
		st.gws = append(st.gws, g)
		if err := c.AddLibrary(name, cluster.LocalLibrary{G: g}); err != nil {
			g.Close()
			c.Close()
			return nil, err
		}
	}
	if err := st.serve(c.Handler()); err != nil {
		c.Close()
		return nil, err
	}
	return st, nil
}

func (st *stack) serve(h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.srv = &http.Server{Handler: h}
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	st.client = gateway.NewClient("http://" + ln.Addr().String())
	return nil
}

// svc is the single library's service (ladder and degraded set-up).
func (st *stack) svc() *service.Service { return st.gws[0].Service() }

// registries lists every registry of the stack: members first, router
// last.
func (st *stack) registries() []*obs.Registry {
	regs := make([]*obs.Registry, 0, len(st.gws)+1)
	for _, g := range st.gws {
		regs = append(regs, g.Metrics())
	}
	if st.router != nil {
		regs = append(regs, st.router.Metrics())
	}
	return regs
}

// close stops the listener and shuts the serving side down gracefully
// (final flush, clean snapshot), waiting for the serve goroutine.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := st.srv.Shutdown(ctx)
	if serr := <-st.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	st.client.CloseIdle()
	if st.router != nil {
		return errors.Join(err, st.router.Close())
	}
	return errors.Join(err, st.gws[0].Close())
}
