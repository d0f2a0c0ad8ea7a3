// Command silica-load drives an archive gateway with concurrent
// closed-loop clients and reports per-class latency histograms plus a
// lost/corrupted-object audit.
//
// Two modes:
//
//	silica-load                       # in-process gateway (default)
//	silica-load -url http://host:7070 # against a running silicad
//
// Every operation runs under one retry policy built from -retries and
// -backoff (gateway.RetryPolicy): jittered exponential backoff on 429
// and 503 answers that honors the server's Retry-After hint.
//
// The in-process mode can provoke deliberate overload with a small
// -staging-cap, demonstrating admission control (rejected > 0) while
// the final verification pass proves no accepted object was lost or
// corrupted. With -cluster N the archive is sharded across N library
// instances behind the consistent-hash router (internal/cluster).
//
// -drill strikes one failure mid-run, waits for the archive to heal,
// and only then runs the byte-exact audit:
//
//	platter  fail a platter-set member; the background scrubber must
//	         detect it and the rebuilder restore it from its set
//	library  (-cluster N, N >= 2) destroy the library holding the most
//	         primaries; reads fail over to the cross-library copies and
//	         a fresh member is rebuilt in its place
//	router   (-cluster N, -persist-dir) kill -9 the router: its
//	         placement log freezes, so nothing un-synced can be acked,
//	         and a successor recovers the directory from
//	         -persist-dir/router, re-attaches the running libraries and
//	         serves the audit
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"silica/internal/cluster"
	"silica/internal/gateway"
	"silica/internal/media"
	"silica/internal/obs"
	"silica/internal/repair"
	"silica/internal/stats"
)

func main() {
	var (
		url           = flag.String("url", "", "gateway base URL; empty runs an in-process gateway")
		clients       = flag.Int("clients", 32, "concurrent closed-loop clients")
		ops           = flag.Int("ops", 16, "operations per client")
		readFrac      = flag.Float64("read-frac", 0.4, "fraction of ops that are reads")
		deleteFrac    = flag.Float64("delete-frac", 0.0, "fraction of ops that are deletes")
		objectBytes   = flag.Int("object-bytes", 2048, "payload size per object")
		seed          = flag.Uint64("seed", 1, "workload RNG seed")
		retries       = flag.Int("retries", 8, "max retries of an op after a 429/503 answer")
		backoff       = flag.Duration("backoff", 5*time.Millisecond, "first retry's backoff; each later one doubles it, up to 8x")
		stagingCap    = flag.Int64("staging-cap", 0, "in-process mode: staging capacity (0 = unbounded)")
		highWatermark = flag.Float64("high-watermark", 0.95, "in-process mode: staging rejection watermark")
		platterTracks = flag.Int("platter-tracks", 0, "in-process mode: shrink platters to this many tracks (0 = default)")
		clusterN      = flag.Int("cluster", 0, "in-process mode: shard across N libraries behind the consistent-hash router")
		drillName     = flag.String("drill", "", "in-process mode: failure to strike mid-run, platter, library or router (see the command doc)")
		rebuildWait   = flag.Duration("rebuild-wait", 60*time.Second, "max wait for the drill to strike, and again for the archive to heal, before the audit")
		faultSeed     = flag.Uint64("fault-seed", 0, "in-process mode: seed for probabilistic fault triggers")
		persistDir    = flag.String("persist-dir", "", "in-process mode: durability directory (snapshot+WAL; empty = in-memory)")
		zipfSkew      = flag.Float64("zipf", 0, "read-popularity skew: 0 = uniform, larger concentrates reads on a hot set")
		backendKind   = flag.String("backend", "direct", "in-process mode: media backend, direct or twin")
		policy        = flag.String("policy", "silica", "twin backend scheduling policy: silica, sp, or ns")
		twinSpeedup   = flag.Float64("twin-speedup", 0, "twin backend virtual-to-wall clock ratio (0 = default)")
	)
	var faultRules []string
	flag.Func("fault", "in-process mode: fault-injection rule (repeatable), e.g. op=media.write,mode=error,every=7,count=5",
		func(s string) error { faultRules = append(faultRules, s); return nil })
	flag.Parse()

	bad := ""
	switch {
	case *url != "" && (*clusterN > 0 || *drillName != ""):
		bad = "-cluster and -drill need the in-process archive (no -url); point -url at a silicad -cluster router instead"
	case *drillName == "platter" && (*clusterN > 0 || len(faultRules) > 0):
		bad = "-drill platter runs on one in-process gateway: no -cluster, no -fault"
	case *drillName == "library" && *clusterN < 2:
		bad = "-drill library needs -cluster N with N >= 2 (redundancy must land on a second library)"
	case *drillName == "router" && (*clusterN < 1 || *persistDir == "" || *deleteFrac > 0):
		// A delete that crashed between its durable tombstone and its ack
		// reads as gone on the successor while the client still holds the
		// bytes: a spurious Lost the audit cannot tell from a real one.
		bad = "-drill router needs -cluster N, -persist-dir (the successor recovers from the router log) and -delete-frac 0 (an unacked delete reads as loss in the audit)"
	case *drillName != "" && *drillName != "platter" && *drillName != "library" && *drillName != "router":
		bad = fmt.Sprintf("-drill %q: want platter, library or router", *drillName)
	}
	if bad != "" {
		fmt.Fprintln(os.Stderr, bad)
		os.Exit(2)
	}

	lc := gateway.LoadConfig{
		Clients:        *clients,
		OpsPerClient:   *ops,
		ReadFraction:   *readFrac,
		DeleteFraction: *deleteFrac,
		ObjectBytes:    *objectBytes,
		Seed:           *seed,
		Retry: &gateway.RetryPolicy{
			MaxRetries:  *retries,
			BaseBackoff: *backoff,
			MaxBackoff:  8 * *backoff,
			JitterFrac:  0.5,
			Seed:        *seed,
		},
		ZipfSkew: *zipfSkew,
	}

	var api gateway.API
	var g *gateway.Gateway
	var cl *cluster.Cluster
	if *url != "" {
		api = gateway.NewClient(*url)
		fmt.Printf("driving %s: %d clients x %d ops, %d-byte objects\n",
			*url, lc.Clients, lc.OpsPerClient, lc.ObjectBytes)
	} else {
		cfg := gateway.DefaultConfig()
		cfg.Service.StagingCapacity = *stagingCap
		cfg.StagingHighWatermark = *highWatermark
		cfg.FaultSeed = *faultSeed
		cfg.FaultRules = faultRules
		cfg.Service.PersistDir = *persistDir
		cfg.Backend = *backendKind
		cfg.BackendPolicy = *policy
		cfg.TwinSpeedup = *twinSpeedup
		if *platterTracks > 0 {
			cfg.Service.Geom.TracksPerPlatter = *platterTracks
		}
		if *clusterN > 0 {
			cfg.Service.PersistDir = "" // cluster roots per-shard subdirectories
			var err error
			cl, err = cluster.NewLocal(cluster.LocalConfig{
				Libraries:  *clusterN,
				Cluster:    cluster.Config{Seed: *seed},
				Gateway:    cfg,
				PersistDir: *persistDir,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer func() { cl.Close() }() // late-bound: -drill router swaps cl to the successor
			api = cl
			fmt.Printf("in-process cluster: %d libraries, %d clients x %d ops, %d-byte objects\n",
				*clusterN, lc.Clients, lc.OpsPerClient, lc.ObjectBytes)
		} else {
			var err error
			g, err = gateway.New(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer g.Close()
			api = g
			fmt.Printf("in-process gateway: %d clients x %d ops, %d-byte objects, staging cap %d\n",
				lc.Clients, lc.OpsPerClient, lc.ObjectBytes, *stagingCap)
		}
	}

	// The library and router drills strike once the cluster holds a key
	// per four clients, enough for the drill to mean something.
	threshold := max(*clients/4, 1)
	var proxy *routerProxy
	var settled func()
	switch *drillName {
	case "platter":
		settled = platterDrill(g).start(*rebuildWait)
	case "library":
		settled = libraryDrill(cl, threshold).start(*rebuildWait)
	case "router":
		proxy = &routerProxy{cl: cl}
		api = proxy
		settled = routerDrill(proxy, *persistDir, *seed, threshold).start(*rebuildWait)
	}
	// The server's numbers are read once the drill has settled and
	// before the audit, whose durable Gets the client sample never sees.
	var samples []obs.PromSample
	var serr error
	lc.BeforeVerify = func() {
		if settled != nil {
			settled()
		}
		samples, serr = scrapeMetrics(api)
	}

	rep := gateway.RunLoad(api, lc)
	if proxy != nil {
		// The audit above already ran against the successor (the proxy
		// swapped mid-run); report and close the successor, not the corpse.
		old := cl
		cl = proxy.cur()
		old.Close()
	}
	fmt.Print(rep)
	if serr != nil {
		fmt.Fprintf(os.Stderr, "metrics scrape: %v\n", serr)
	} else {
		printServerPercentiles(samples, rep)
		printLatencyBreakdown(samples)
	}
	if g != nil && len(faultRules) > 0 {
		fmt.Printf("faults: %d injected across %d rule(s)\n", g.Faults().Total(), len(faultRules))
	}
	if cl != nil {
		fmt.Printf("cluster: %s", cl.Status())
	}

	if rep.Lost > 0 || rep.Corrupted > 0 {
		fmt.Fprintln(os.Stderr, "FAIL: committed objects lost or corrupted")
		os.Exit(1)
	}
	fmt.Println("verification: all committed objects intact")
}

// scrapeMetrics fetches the archive's /metrics samples, over HTTP in
// -url mode or straight off the in-process registry. In cluster mode
// the router's registry carries silica_cluster_* families; per-shard
// gateway families live in each shard's private registry.
func scrapeMetrics(api gateway.API) ([]obs.PromSample, error) {
	if c, ok := api.(*gateway.Client); ok {
		return c.Metrics()
	}
	var buf bytes.Buffer
	if err := api.(interface{ Metrics() *obs.Registry }).Metrics().WriteProm(&buf); err != nil {
		return nil, err
	}
	return obs.ParseProm(&buf)
}

// printServerPercentiles prints the gateway's own request p99 (derived
// from its histogram buckets) next to the client-observed p99 for each
// class the scraped registry has, so time spent inside the gateway is
// separable from transport and retry overhead.
func printServerPercentiles(samples []obs.PromSample, rep gateway.LoadReport) {
	shown := false
	for _, class := range []string{"put", "get", "delete"} {
		cs, ok := rep.Latencies[class]
		sp, sok := obs.HistQuantile(samples, "silica_gateway_request_seconds",
			map[string]string{"class": class}, 0.99)
		if !ok || !sok {
			continue
		}
		if !shown {
			fmt.Println("latency p99, server vs client:")
			shown = true
		}
		fmt.Printf("  %-7s server %8s   client %8s\n", class, stats.FormatDuration(sp), stats.FormatDuration(cs.P99))
	}
}

// printLatencyBreakdown splits mean request latency into its queue,
// mechanical, and codec/other shares using the gateway's queue-wait
// histogram and the backend's mechanical spans. With the direct
// backend the mechanical share is zero by construction; under
// -backend twin it dominates, which is the whole point of the twin.
func printLatencyBreakdown(samples []obs.PromSample) {
	classOps := []struct{ class, op string }{{"get", "read"}, {"put", "burn"}}
	shown := false
	for _, co := range classOps {
		total, ok := obs.HistMean(samples, "silica_gateway_request_seconds",
			map[string]string{"class": co.class})
		if !ok {
			continue
		}
		queue, _ := obs.HistMean(samples, "silica_gateway_queue_wait_seconds",
			map[string]string{"class": co.class})
		mech, _ := obs.HistMean(samples, "silica_backend_mech_seconds",
			map[string]string{"op": co.op})
		codec := total - queue - mech
		if codec < 0 {
			// Burns are batched: one mechanical burn amortizes over many
			// puts, so the per-op mean can exceed the per-request mean.
			codec = 0
		}
		if !shown {
			fmt.Println("latency breakdown (mean, server side):")
			shown = true
		}
		fmt.Printf("  %-4s total %8s = queue %8s + mechanical %8s + codec/other %8s\n",
			co.class, stats.FormatDuration(total), stats.FormatDuration(queue),
			stats.FormatDuration(mech), stats.FormatDuration(codec))
	}
	if v, ok := obs.FindSample(samples, "silica_backend_virtual_seconds", nil); ok && v.Value > 0 {
		fmt.Printf("  twin: %.1f virtual seconds simulated\n", v.Value)
	}
}

// drill is one failure drill in three steps: ready says when the run
// has put enough in place to strike, strike injects the failure, and
// settle (nil when nothing needs to heal) waits up to its argument for
// the archive to heal before the audit.
type drill struct {
	ready  func() bool
	strike func() error
	settle func(wait time.Duration) error
}

// start runs d beside the load and returns what RunLoad calls before
// its audit: wait for the strike, then for the settle. Any failure ends
// the run with exit 1 — a drill that never struck proved nothing, and
// an archive that never healed broke a durability promise.
func (d drill) start(wait time.Duration) (settled func()) {
	struck := make(chan error, 1)
	go func() {
		for !d.ready() {
			time.Sleep(5 * time.Millisecond)
		}
		struck <- d.strike()
	}()
	return func() {
		var err error
		select {
		case err = <-struck:
			if err == nil && d.settle != nil {
				err = d.settle(wait)
			}
		case <-time.After(wait):
			err = fmt.Errorf("the drill found nothing to strike within %s", wait)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "FAIL: %v\n", err)
			os.Exit(1)
		}
	}
}

// platterDrill waits for the first platter-set to complete, then
// fails its first information member — a platter lost to media damage
// mid-run — and settles once the platter's health history shows the
// full healthy → failed → rebuilding → retired arc (a healthy
// replacement published in its place) and the service reports full
// redundancy again.
func platterDrill(g *gateway.Gateway) drill {
	svc := g.Service()
	var id media.PlatterID
	return drill{
		ready: func() bool { return svc.Stats().SetsCompleted > 0 },
		strike: func() error {
			for _, p := range svc.ListPlatters() {
				if p.Set == 0 && !p.Redundancy {
					if err := svc.FailPlatter(p.ID); err != nil {
						return fmt.Errorf("kill: %w", err)
					}
					id = p.ID
					fmt.Printf("kill: failed platter %d (set %d pos %d) mid-run\n", p.ID, p.Set, p.SetPos)
					return nil
				}
			}
			return errors.New("kill: completed set has no information members")
		},
		settle: func(wait time.Duration) error {
			deadline := time.Now().Add(wait)
			for {
				rec, ok := svc.Health().Get(id)
				if ok && rec.Health() == repair.Retired && !g.Degraded() {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("platter %d not rebuilt within %s (health %v)", id, wait, rec.Health())
				}
				time.Sleep(10 * time.Millisecond)
			}
			// Print the arc the registry recorded; the byte-exact audit
			// in RunLoad then proves no object was lost.
			for _, p := range g.HealthPlatters().Platters {
				if p.Platter != id {
					continue
				}
				fmt.Printf("rebuild: platter %d history:\n", id)
				for _, tr := range p.History {
					from := tr.From
					if from == "" {
						from = "(new)"
					}
					fmt.Printf("  %s -> %-10s %s\n", from, tr.To, tr.Reason)
				}
			}
			st := svc.Stats()
			fmt.Printf("rebuild: %d platters rebuilt, %d scrubbed sectors, %d health transitions\n",
				st.PlattersRebuilt, st.ScrubbedSectors, st.HealthTransitions)
			return nil
		},
	}
}

// libraryDrill destroys the library owning the most primaries — the
// whole-failure-domain analogue of platterDrill — and settles by
// rebuilding a fresh, empty member in its place from the survivors'
// cross-library copies. A key with no surviving copy is a broken
// durability promise and fails the run.
func libraryDrill(cl *cluster.Cluster, threshold int) drill {
	var name string
	return drill{
		ready: func() bool { return cl.Keys() >= threshold },
		strike: func() error {
			most := -1
			for lib, n := range cl.PrimaryCounts() {
				if n > most || (n == most && lib < name) {
					name, most = lib, n
				}
			}
			if err := cl.KillLibrary(name); err != nil {
				return fmt.Errorf("kill: %w", err)
			}
			fmt.Printf("kill: destroyed library %s mid-run (%d primary keys at time of death)\n", name, most)
			return nil
		},
		settle: func(wait time.Duration) error {
			ctx, cancel := context.WithTimeout(context.Background(), wait)
			defer cancel()
			rep, err := cl.RebuildLibrary(ctx, name, nil)
			if err != nil {
				return fmt.Errorf("rebuilding library %s: %w", name, err)
			}
			if rep.Lost > 0 {
				return fmt.Errorf("%d key(s) had no surviving copy after losing %s", rep.Lost, name)
			}
			fmt.Printf("rebuild: library %s replaced; %d/%d keys moved, %d bytes migrated\n",
				name, rep.KeysMoved, rep.KeysExamined, rep.BytesMoved)
			if cl.Degraded() {
				return errors.New("cluster still degraded after library rebuild")
			}
			return nil
		},
	}
}

// routerProxy routes gateway.API calls at whatever router is current,
// so the load generator rides through a mid-run router replacement the
// way retrying HTTP clients ride through a silicad restart: ops that
// raced the crash fail (they were never acked), ops arriving during
// the swap block until the successor is serving.
type routerProxy struct {
	mu sync.RWMutex
	cl *cluster.Cluster
}

func (p *routerProxy) cur() *cluster.Cluster {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.cl
}

func (p *routerProxy) Put(account, name string, data []byte) (int, error) {
	return p.cur().Put(account, name, data)
}
func (p *routerProxy) Get(account, name string) ([]byte, error) {
	return p.cur().Get(account, name)
}
func (p *routerProxy) Delete(account, name string) error {
	return p.cur().Delete(account, name)
}
func (p *routerProxy) Flush() error           { return p.cur().Flush() }
func (p *routerProxy) Metrics() *obs.Registry { return p.cur().Metrics() }

// routerDrill crashes the router: CrashPersist freezes its placement
// log exactly as kill -9 would (no un-synced ack can escape), the
// member libraries are detached — they never died — and a successor
// router recovers the directory from the persist log, re-attaches the
// members, and takes over the proxy. Writes that raced the crash fail
// and are retried by the load generator against the successor. The
// strike is the whole drill: nothing is left to settle.
func routerDrill(p *routerProxy, persistDir string, seed uint64, threshold int) drill {
	dir := cluster.RouterPersistDir(persistDir)
	return drill{
		ready: func() bool { return p.cur().Keys() >= threshold },
		strike: func() error {
			// Hold the swap lock across the crash: ops already inside the
			// old router race the freeze (and fail unacked, as under a real
			// kill -9); new ops queue until the successor is serving.
			p.mu.Lock()
			defer p.mu.Unlock()
			old := p.cl
			old.CrashPersist()
			handles := old.Detach()
			fmt.Printf("kill: crashed router mid-run (log frozen at %d keys); recovering from %s\n", old.Keys(), dir)
			succ, err := cluster.New(cluster.Config{Seed: seed, PersistDir: dir})
			if err != nil {
				return fmt.Errorf("successor router: %w", err)
			}
			for name, lib := range handles {
				if err := succ.AddLibrary(name, lib); err != nil {
					return fmt.Errorf("re-attaching %s: %w", name, err)
				}
			}
			p.cl = succ
			st := succ.Status()
			fmt.Printf("recover: successor router serving %d keys across %d libraries\n",
				st.Keys, len(st.Libraries))
			return nil
		},
	}
}
