// Command silica-load drives an archive gateway with concurrent
// closed-loop clients and reports per-class latency histograms plus a
// lost/corrupted-object audit.
//
// Two modes:
//
//	silica-load                       # in-process gateway (default)
//	silica-load -url http://host:7070 # against a running silicad
//
// The in-process mode can provoke deliberate overload with a small
// -staging-cap, demonstrating admission control (rejected > 0) while
// the final verification pass proves no accepted object was lost or
// corrupted. It can also kill a platter mid-run (-kill-platter): the
// background scrubber must detect the failure, rebuild the platter
// from its set, and the byte-exact audit must still find every
// committed object intact.
//
// With -cluster N the in-process archive is sharded across N library
// instances behind the consistent-hash router (internal/cluster), and
// -kill-library escalates the drill from one platter to a whole
// library: a member is destroyed mid-run, reads fail over to the
// cross-library redundancy copies, a fresh library is rebuilt in its
// place, and the audit must still find every acknowledged object
// byte-exact.
//
// -kill-router (cluster mode, needs -persist-dir) escalates once more:
// the router itself dies mid-run — its placement log freezes exactly as
// under kill -9, so nothing un-synced can be acked — and a successor
// router recovers the directory from -persist-dir/router, re-attaches
// the still-running libraries, and takes over serving. The byte-exact
// audit then runs against the successor: every write the dead router
// acknowledged must come back intact.
package main

import (
	"bytes"
	"context"
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
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return fmt.Sprint([]string(*m)) }
func (m *multiFlag) Set(s string) error {
	*m = append(*m, s)
	return nil
}

func main() {
	var (
		url           = flag.String("url", "", "gateway base URL; empty runs an in-process gateway")
		clients       = flag.Int("clients", 32, "concurrent closed-loop clients")
		ops           = flag.Int("ops", 16, "operations per client")
		readFrac      = flag.Float64("read-frac", 0.4, "fraction of ops that are reads")
		deleteFrac    = flag.Float64("delete-frac", 0.0, "fraction of ops that are deletes")
		objectBytes   = flag.Int("object-bytes", 2048, "payload size per object")
		seed          = flag.Uint64("seed", 1, "workload RNG seed")
		retries       = flag.Int("retries", 8, "max retries after an overload rejection")
		backoff       = flag.Duration("backoff", 5*time.Millisecond, "base retry backoff")
		stagingCap    = flag.Int64("staging-cap", 0, "in-process mode: staging capacity (0 = unbounded)")
		highWatermark = flag.Float64("high-watermark", 0.95, "in-process mode: staging rejection watermark")
		platterTracks = flag.Int("platter-tracks", 0, "in-process mode: shrink platters to this many tracks (0 = default)")
		killPlatter   = flag.Bool("kill-platter", false, "in-process mode: fail a set member mid-run; scrubber must detect, rebuild must restore it")
		clusterN      = flag.Int("cluster", 0, "in-process mode: shard across N libraries behind the consistent-hash router")
		killLibrary   = flag.Bool("kill-library", false, "cluster mode: destroy an entire library mid-run; reads must fail over to cross-library redundancy and the rebuild must restore it")
		killRouter    = flag.Bool("kill-router", false, "cluster mode: kill -9 the router mid-run (persist log freezes), recover a successor from -persist-dir, and audit every acked object against it")
		rebuildWait   = flag.Duration("rebuild-wait", 60*time.Second, "max wait for the killed platter's rebuild before verification")
		clientRetry   = flag.Bool("client-retry", false, "-url mode: retry 429/503 inside the HTTP client (jittered backoff, honors Retry-After)")
		faultSeed     = flag.Uint64("fault-seed", 0, "in-process mode: seed for probabilistic fault triggers")
		persistDir    = flag.String("persist-dir", "", "in-process mode: durability directory (snapshot+WAL; empty = in-memory)")
		zipfSkew      = flag.Float64("zipf", 0, "read-popularity skew: 0 = uniform, larger concentrates reads on a hot set")
		backendKind   = flag.String("backend", "direct", "in-process mode: media backend, direct or twin")
		policy        = flag.String("policy", "silica", "twin backend scheduling policy: silica, sp, or ns")
		twinSpeedup   = flag.Float64("twin-speedup", 0, "twin backend virtual-to-wall clock ratio (0 = default)")
	)
	var faultRules multiFlag
	flag.Var(&faultRules, "fault", "in-process mode: fault-injection rule (repeatable), e.g. op=media.write,mode=error,every=7,count=5")
	flag.Parse()

	lc := gateway.LoadConfig{
		Clients:        *clients,
		OpsPerClient:   *ops,
		ReadFraction:   *readFrac,
		DeleteFraction: *deleteFrac,
		ObjectBytes:    *objectBytes,
		Seed:           *seed,
		MaxRetries:     *retries,
		RetryBackoff:   *backoff,
		ZipfSkew:       *zipfSkew,
	}

	if *killLibrary && *clusterN < 2 {
		fmt.Fprintln(os.Stderr, "-kill-library needs -cluster N with N >= 2 (redundancy must land on a second library)")
		os.Exit(2)
	}
	if *clusterN > 0 && *killPlatter {
		fmt.Fprintln(os.Stderr, "-kill-platter and -cluster are separate drills; pick one")
		os.Exit(2)
	}
	if *killRouter {
		if *clusterN < 1 || *persistDir == "" {
			fmt.Fprintln(os.Stderr, "-kill-router needs -cluster N and -persist-dir (the successor recovers from the router log)")
			os.Exit(2)
		}
		if *killLibrary {
			fmt.Fprintln(os.Stderr, "-kill-router and -kill-library are separate drills; pick one")
			os.Exit(2)
		}
		if *deleteFrac > 0 {
			// A delete that crashed between its durable tombstone and its
			// ack reads as gone on the successor while the client still
			// holds the bytes — a spurious Lost the audit cannot tell from
			// a real one. The router crash drill is a write/read drill.
			fmt.Fprintln(os.Stderr, "-kill-router needs -delete-frac 0 (unacked deletes are indistinguishable from loss in the audit)")
			os.Exit(2)
		}
	}

	var api gateway.API
	var g *gateway.Gateway
	var cl *cluster.Cluster
	if *url != "" {
		if *killPlatter {
			fmt.Fprintln(os.Stderr, "-kill-platter requires the in-process gateway (no -url)")
			os.Exit(2)
		}
		if *clusterN > 0 {
			fmt.Fprintln(os.Stderr, "-cluster requires the in-process gateway (no -url); point -url at a silicad -cluster router instead")
			os.Exit(2)
		}
		c := gateway.NewClient(*url)
		if *clientRetry {
			pol := gateway.DefaultRetryPolicy()
			pol.Seed = *seed
			c.Retry = pol
		}
		api = c
		fmt.Printf("driving %s: %d clients x %d ops, %d-byte objects\n",
			*url, lc.Clients, lc.OpsPerClient, lc.ObjectBytes)
	} else {
		if len(faultRules) > 0 && *killPlatter {
			fmt.Fprintln(os.Stderr, "-fault and -kill-platter are separate failure drills; pick one")
			os.Exit(2)
		}
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
			defer func() { cl.Close() }() // late-bound: -kill-router swaps cl to the successor
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

	if *killPlatter {
		victim := make(chan media.PlatterID, 1)
		go killSetMember(g, victim)
		lc.BeforeVerify = func() { awaitRebuild(g, victim, *rebuildWait) }
	}
	if *killLibrary {
		victim := make(chan string, 1)
		go killLibraryShard(cl, victim, *clients)
		lc.BeforeVerify = func() { awaitLibraryRebuild(cl, victim, *rebuildWait) }
	}
	var proxy *routerProxy
	if *killRouter {
		proxy = &routerProxy{cl: cl}
		api = proxy
		done := make(chan struct{})
		go killRouterDrill(proxy, *persistDir, *seed, *clients, done)
		lc.BeforeVerify = func() {
			select {
			case <-done:
			case <-time.After(*rebuildWait):
				fmt.Fprintln(os.Stderr, "FAIL: router crash drill did not complete in time")
				os.Exit(1)
			}
		}
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
	samples, serr := scrapeMetrics(api, g, cl)
	if serr != nil {
		fmt.Fprintf(os.Stderr, "metrics scrape: %v\n", serr)
	} else {
		printServerPercentiles(samples, rep)
		printLatencyBreakdown(samples)
	}
	if g != nil && len(faultRules) > 0 {
		fmt.Printf("faults: %d injected across %d rule(s)\n", g.Faults().Total(), len(faultRules))
	}
	if c, ok := api.(*gateway.Client); ok && c.RetriesTotal() > 0 {
		fmt.Printf("client: %d retries after 429/503\n", c.RetriesTotal())
	}
	if cl != nil {
		printClusterSummary(cl)
	}

	if rep.Lost > 0 || rep.Corrupted > 0 {
		fmt.Fprintln(os.Stderr, "FAIL: committed objects lost or corrupted")
		os.Exit(1)
	}
	fmt.Println("verification: all committed objects intact")
}

// scrapeMetrics fetches the gateway's /metrics samples, over HTTP in
// -url mode or straight off the in-process registry. In cluster mode
// the router's registry carries silica_cluster_* families; per-shard
// gateway families live in each shard's private registry.
func scrapeMetrics(api gateway.API, g *gateway.Gateway, cl *cluster.Cluster) ([]obs.PromSample, error) {
	if c, ok := api.(*gateway.Client); ok {
		return c.Metrics()
	}
	var buf bytes.Buffer
	reg := cl.Metrics
	if g != nil {
		reg = g.Metrics
	}
	if err := reg().WriteProm(&buf); err != nil {
		return nil, err
	}
	return obs.ParseProm(&buf)
}

// printServerPercentiles prints the gateway's own request p99 (derived
// from its histogram buckets) next to the client-observed p99, so time
// spent inside the gateway is separable from transport and retry
// overhead.
func printServerPercentiles(samples []obs.PromSample, rep gateway.LoadReport) {
	fmt.Println("latency p99, server vs client:")
	for _, class := range []string{"put", "get", "delete"} {
		cs, ok := rep.Latencies[class]
		if !ok || cs.N == 0 {
			continue
		}
		server := "-"
		if sp, ok := obs.HistQuantile(samples, "silica_gateway_request_seconds",
			map[string]string{"class": class}, 0.99); ok {
			server = fmt.Sprintf("%.1fms", 1000*sp)
		}
		fmt.Printf("  %-7s server %8s   client %7.1fms\n", class, server, 1000*cs.P99)
	}
}

// histMean returns a histogram's mean (sum/count) from its exposition
// samples, or false when it has no observations.
func histMean(samples []obs.PromSample, name string, want map[string]string) (float64, bool) {
	sum, ok1 := obs.FindSample(samples, name+"_sum", want)
	cnt, ok2 := obs.FindSample(samples, name+"_count", want)
	if !ok1 || !ok2 || cnt.Value == 0 {
		return 0, false
	}
	return sum.Value / cnt.Value, true
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
		total, ok := histMean(samples, "silica_gateway_request_seconds",
			map[string]string{"class": co.class})
		if !ok {
			continue
		}
		queue, _ := histMean(samples, "silica_gateway_queue_wait_seconds",
			map[string]string{"class": co.class})
		mech, _ := histMean(samples, "silica_backend_mech_seconds",
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
		fmt.Printf("  %-4s total %8.2fms = queue %8.2fms + mechanical %8.2fms + codec/other %8.2fms\n",
			co.class, 1000*total, 1000*queue, 1000*mech, 1000*codec)
	}
	if v, ok := obs.FindSample(samples, "silica_backend_virtual_seconds", nil); ok && v.Value > 0 {
		fmt.Printf("  twin: %.1f virtual seconds simulated\n", v.Value)
	}
}

// killSetMember waits for the first platter-set to complete, then
// fails its first information member — simulating a platter lost to
// media damage mid-run. The id is sent on victim for awaitRebuild.
func killSetMember(g *gateway.Gateway, victim chan<- media.PlatterID) {
	for {
		if g.Service().Stats().SetsCompleted > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, p := range g.Service().ListPlatters() {
		if p.Set == 0 && !p.Redundancy {
			if err := g.Service().FailPlatter(p.ID); err != nil {
				fmt.Fprintf(os.Stderr, "kill: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("kill: failed platter %d (set %d pos %d) mid-run\n", p.ID, p.Set, p.SetPos)
			victim <- p.ID
			return
		}
	}
	fmt.Fprintln(os.Stderr, "kill: completed set has no information members?")
	os.Exit(1)
}

// awaitRebuild blocks until the killed platter's health history shows
// the full healthy → failed → rebuilding → retired arc (a healthy
// replacement published in its place) and the service reports full
// redundancy again. Times out nonzero: a lost rebuild is a lost
// durability promise.
func awaitRebuild(g *gateway.Gateway, victim <-chan media.PlatterID, wait time.Duration) {
	var id media.PlatterID
	select {
	case id = <-victim:
	case <-time.After(wait):
		fmt.Fprintln(os.Stderr, "FAIL: no platter-set completed; nothing was killed")
		os.Exit(1)
	}
	deadline := time.Now().Add(wait)
	for {
		rec, ok := g.Service().Health().Get(id)
		if ok && rec.Health() == repair.Retired && !g.Degraded() {
			break
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "FAIL: platter %d not rebuilt within %s (health %v)\n",
				id, wait, rec.Health())
			os.Exit(1)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Print the arc the registry recorded, then let the byte-exact
	// audit in RunLoad prove no object was lost.
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
	st := g.Service().Stats()
	fmt.Printf("rebuild: %d platters rebuilt, %d scrubbed sectors, %d health transitions\n",
		st.PlattersRebuilt, st.ScrubbedSectors, st.HealthTransitions)
}

// killLibraryShard waits until the cluster holds enough keys for the
// drill to mean something, then destroys the library owning the most
// primaries — the whole-failure-domain analogue of killSetMember. The
// victim's name is sent on victim for awaitLibraryRebuild.
func killLibraryShard(cl *cluster.Cluster, victim chan<- string, clients int) {
	threshold := clients / 4
	if threshold < 1 {
		threshold = 1
	}
	for cl.Keys() < threshold {
		time.Sleep(5 * time.Millisecond)
	}
	name, max := "", -1
	for lib, n := range cl.PrimaryCounts() {
		if n > max || (n == max && lib < name) {
			name, max = lib, n
		}
	}
	if err := cl.KillLibrary(name); err != nil {
		fmt.Fprintf(os.Stderr, "kill: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("kill: destroyed library %s mid-run (%d primary keys at time of death)\n", name, max)
	victim <- name
}

// awaitLibraryRebuild replaces the killed library with a fresh, empty
// one and rebalances: every key the victim held is rebuilt from its
// cross-library redundancy copy. A key with no surviving copy is a
// broken durability promise and fails the run; the byte-exact audit
// in RunLoad then proves the rebuilt copies are intact.
func awaitLibraryRebuild(cl *cluster.Cluster, victim <-chan string, wait time.Duration) {
	var name string
	select {
	case name = <-victim:
	case <-time.After(wait):
		fmt.Fprintln(os.Stderr, "FAIL: cluster never reached the kill threshold; nothing was killed")
		os.Exit(1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()
	rep, err := cl.RebuildLibrary(ctx, name, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "FAIL: rebuilding library %s: %v\n", name, err)
		os.Exit(1)
	}
	if rep.Lost > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d key(s) had no surviving copy after losing %s\n", rep.Lost, name)
		os.Exit(1)
	}
	fmt.Printf("rebuild: library %s replaced; %d/%d keys moved, %d bytes migrated\n",
		name, rep.KeysMoved, rep.KeysExamined, rep.BytesMoved)
	if cl.Degraded() {
		fmt.Fprintln(os.Stderr, "FAIL: cluster still degraded after library rebuild")
		os.Exit(1)
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
func (p *routerProxy) Flush() error { return p.cur().Flush() }

// killRouterDrill waits for the run to place enough keys, then crashes
// the router: CrashPersist freezes its placement log exactly as kill -9
// would (no un-synced ack can escape), the member libraries are
// detached — they never died — and a successor router recovers the
// directory from the persist log, re-attaches the members, and takes
// over the proxy. Writes that raced the crash fail and are retried by
// the load generator against the successor.
func killRouterDrill(p *routerProxy, persistDir string, seed uint64, clients int, done chan<- struct{}) {
	old := p.cur()
	threshold := clients / 4
	if threshold < 1 {
		threshold = 1
	}
	for old.Keys() < threshold {
		time.Sleep(5 * time.Millisecond)
	}
	// Hold the swap lock across the crash: ops already inside the old
	// router race the freeze (and fail unacked, as under a real kill -9);
	// new ops queue until the successor is serving.
	p.mu.Lock()
	old.CrashPersist()
	handles := old.Detach()
	fmt.Printf("kill: crashed router mid-run (log frozen at %d keys); recovering from %s\n",
		old.Keys(), cluster.RouterPersistDir(persistDir))
	succ, err := cluster.New(cluster.Config{Seed: seed, PersistDir: cluster.RouterPersistDir(persistDir)})
	if err != nil {
		fmt.Fprintf(os.Stderr, "FAIL: successor router: %v\n", err)
		os.Exit(1)
	}
	for name, lib := range handles {
		if err := succ.AddLibrary(name, lib); err != nil {
			fmt.Fprintf(os.Stderr, "FAIL: re-attaching %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	p.cl = succ
	p.mu.Unlock()
	st := succ.Status()
	fmt.Printf("recover: successor router serving %d keys across %d libraries\n",
		st.Keys, len(st.Libraries))
	close(done)
}

// printClusterSummary reports ring placement and redundancy accounting
// after a cluster-mode run.
func printClusterSummary(cl *cluster.Cluster) {
	st := cl.Status()
	fmt.Printf("cluster: %d keys across %d libraries (ring v%d, seed %d)\n",
		st.Keys, len(st.Libraries), st.RingVersion, st.Seed)
	fmt.Printf("  redundancy: %d replicated, %d unprotected, %d cross-library rebuild reads\n",
		st.Replicated, st.Unprotected, st.RebuildReads)
	if st.MovedKeys > 0 {
		fmt.Printf("  rebalance: %d keys, %d bytes migrated\n", st.MovedKeys, st.MovedBytes)
	}
	for _, l := range st.Libraries {
		state := "alive"
		if !l.Alive {
			state = "dead"
		}
		fmt.Printf("  %-8s %-5s own %5.1f%%  primaries %4d  replicas %4d  routed %5d\n",
			l.Name, state, 100*l.Frac, l.PrimaryKeys, l.ReplicaKeys, l.Routed)
	}
}
