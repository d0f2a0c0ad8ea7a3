// Command silicad runs the Silica archive gateway as an HTTP daemon:
// an in-memory glass archive behind admission control, per-class
// request queues, and a batched flush scheduler.
//
//	silicad -listen :7070 -staging-cap 1048576 -flush-age 2s
//
// The HTTP API — every route, which mode serves it, and the status
// mapping — is the "HTTP surface" table in DESIGN.md.
//
// With -backend twin every media touch (burns, reads, scrub samples,
// rebuild member reads) is charged mechanical latency by a calibrated
// digital twin of a Silica library — drives, shuttles, mount and seek
// distributions — throttled to wall time by -twin-speedup. Bytes are
// identical to -backend direct; only timing differs.
//
// With -cluster N (or -peers url,url,...) the daemon serves the
// multi-library router instead of one gateway: the archive shards
// across N in-process library instances (or a fleet of peer silicads)
// on a deterministic consistent-hash ring, every write places a
// cross-library redundancy copy on the ring successor, and the
// object API is unchanged; the router adds /v1/cluster*.
//
// With -persist-dir the daemon is durable: it recovers snapshot+WAL
// state from the directory on start, fsyncs the WAL before every
// acknowledgment, and snapshots on graceful shutdown. kill-mode fault
// rules (e.g. -fault kill@publish.platter:after=1,count=1) exit with
// code 137 at the chosen pipeline point for crash drills.
//
// Fault injection (-fault, repeatable) arms deterministic failure
// rules at startup, e.g.
//
//	silicad -fault op=media.write,mode=error,every=7,count=5 \
//	        -fault op=staging.reserve,mode=error,err=capacity,prob=0.05 \
//	        -fault-seed 42
//
// SIGINT/SIGTERM triggers graceful shutdown: admission stops, in-flight
// requests drain, and staging is flushed to glass before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"silica/internal/backend"
	"silica/internal/cluster"
	"silica/internal/faults"
	"silica/internal/gateway"
	"silica/internal/persist"
)

func main() {
	var (
		listen        = flag.String("listen", ":7070", "HTTP listen address")
		writeWorkers  = flag.Int("write-workers", 4, "write worker pool size")
		readWorkers   = flag.Int("read-workers", 4, "read worker pool size")
		writeQueue    = flag.Int("write-queue", 64, "write queue depth")
		readQueue     = flag.Int("read-queue", 64, "read queue depth")
		stagingCap    = flag.Int64("staging-cap", 0, "staging capacity in bytes (0 = unbounded)")
		highWatermark = flag.Float64("high-watermark", 0.95, "staging fraction above which writes are rejected")
		flushBytes    = flag.Int64("flush-bytes", 0, "staged bytes that trigger a flush (0 = one platter)")
		flushAge      = flag.Duration("flush-age", 2*time.Second, "max staged age before a flush (0 = disabled)")
		flushInterval = flag.Duration("flush-interval", 50*time.Millisecond, "scheduler evaluation period")
		scrubEvery    = flag.Duration("scrub-interval", 25*time.Millisecond, "pause between background scrub picks")
		scrubTracks   = flag.Int("scrub-tracks", 2, "tracks sampled per scrub pass (0 = whole platter)")
		autoRebuild   = flag.Bool("auto-rebuild", true, "rebuild failed platters automatically")
		noRepair      = flag.Bool("no-repair", false, "disable the background scrubber and rebuilder")
		codecWorkers  = flag.Int("codec-workers", 0, "codec engine parallelism (0 = GOMAXPROCS, 1 = serial)")
		retryAfter    = flag.Duration("retry-after", time.Second, "backoff hint sent in Retry-After on 429/503")
		faultSeed     = flag.Uint64("fault-seed", 0, "seed for probabilistic fault-injection triggers")
		persistDir    = flag.String("persist-dir", "", "durability directory: snapshot+WAL recovery on start, fsync-before-ack while serving (empty = in-memory)")
		persistSnap   = flag.Int("persist-snapshot-every", 0, "WAL records between snapshots (0 = default)")
		backendKind   = flag.String("backend", "direct", "media backend: direct (no mechanical latency) or twin (calibrated library simulation)")
		policy        = flag.String("policy", "silica", "twin backend scheduling policy: silica, sp, or ns")
		twinSpeedup   = flag.Float64("twin-speedup", 0, "twin backend virtual-to-wall clock ratio (0 = default 200x)")
		clusterN      = flag.Int("cluster", 0, "router mode: shard the archive across N in-process libraries (consistent-hash placement + cross-library redundancy)")
		peers         = flag.String("peers", "", "router mode: comma-separated peer silicad URLs to route across (mutually exclusive with -cluster)")
		clusterSeed   = flag.Uint64("cluster-seed", 1, "router mode: ring placement seed (same seed + members = identical routing)")
		clusterVNodes = flag.Int("cluster-vnodes", 0, "router mode: virtual nodes per library (0 = default)")
	)
	var faultRules []string
	flag.Func("fault", "fault-injection rule (repeatable), e.g. op=media.write,mode=error,every=7,count=5",
		func(s string) error { faultRules = append(faultRules, s); return nil })
	flag.Parse()

	cfg := gateway.DefaultConfig()
	cfg.WriteWorkers = *writeWorkers
	cfg.ReadWorkers = *readWorkers
	cfg.WriteQueue = *writeQueue
	cfg.ReadQueue = *readQueue
	cfg.Service.StagingCapacity = *stagingCap
	cfg.Service.CodecWorkers = *codecWorkers
	cfg.StagingHighWatermark = *highWatermark
	cfg.FlushBytes = *flushBytes
	cfg.FlushAge = *flushAge
	cfg.FlushInterval = *flushInterval
	cfg.Repair.ScrubInterval = *scrubEvery
	cfg.Repair.SampleTracks = *scrubTracks
	cfg.Repair.AutoRebuild = *autoRebuild
	cfg.DisableRepair = *noRepair
	cfg.RetryAfter = *retryAfter
	cfg.FaultSeed = *faultSeed
	cfg.FaultRules = faultRules
	cfg.Service.PersistDir = *persistDir
	cfg.Service.PersistSnapshotEvery = *persistSnap
	cfg.Backend = *backendKind
	cfg.BackendPolicy = *policy
	cfg.TwinSpeedup = *twinSpeedup
	if len(faultRules) > 0 {
		log.Printf("fault injection armed: %d rule(s), seed %d", len(faultRules), *faultSeed)
	}
	if *backendKind == "twin" {
		sp := *twinSpeedup
		if sp <= 0 {
			sp = backend.DefaultSpeedup
		}
		log.Printf("twin backend: policy %s, speedup %gx", *policy, sp)
	}

	if *clusterN > 0 && *peers != "" {
		fmt.Fprintln(os.Stderr, "-cluster and -peers are exclusive router modes; pick one")
		os.Exit(2)
	}
	if *clusterN > 0 || *peers != "" {
		runCluster(cfg, *listen, *clusterN, *peers, *clusterSeed, *clusterVNodes, *persistDir, *retryAfter)
		return
	}

	g, err := gateway.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *persistDir != "" {
		// Kill-mode fault rules terminate the process abruptly — the
		// crash-recovery harness's stand-in for kill -9 at an exact
		// pipeline point. Exit code 137 mirrors SIGKILL.
		g.Faults().SetKill(func() {
			log.Printf("fault injection: kill point reached, exiting")
			os.Exit(137)
		})
		log.Printf("persistence enabled: %s", *persistDir)
		warnTruncated(g.Service().PersistLog(), *persistDir)
	}

	log.Printf("silicad listening on %s (staging cap %d, flush-age %s)", *listen, *stagingCap, *flushAge)
	serve(*listen, g.Handler(), func() error {
		if err := g.Close(); err != nil && err != gateway.ErrClosed {
			return err
		}
		ctr := g.Counters()
		log.Printf("drained: %d completed, %d rejected, %d flushes, %d platters written",
			ctr.Completed, ctr.Rejected, ctr.Flushes, g.Service().Stats().PlattersWritten)
		return nil
	})
}

// serve is the daemon's lifetime in either mode: listen, wait for
// SIGINT/SIGTERM or a server error, stop accepting and let in-flight
// requests finish (30 s grace), then close the stack behind the
// handler. A failed close exits 1 — staged data may not be durable.
func serve(listen string, handler http.Handler, closeStack func() error) {
	srv := &http.Server{Addr: listen, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("received %s; draining", sig)
	case err := <-errc:
		log.Printf("server error: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := closeStack(); err != nil {
		log.Printf("close: %v", err)
		os.Exit(1)
	}
}

// warnTruncated says so when recovery stopped at a torn or corrupt WAL
// frame: whatever followed the damage was discarded, which an operator
// should hear about once rather than discover from a missing object.
func warnTruncated(l *persist.Log, dir string) {
	if l != nil && l.RecoveryTruncated() {
		log.Printf("recovery of %s discarded a torn or corrupt WAL tail (silica_persist_recovery_truncated=1)", dir)
	}
}

// runCluster serves the multi-library router: N in-process library
// shards (-cluster) or a fleet of peer daemons (-peers), behind one
// consistent-hash placement layer with cross-library redundancy.
func runCluster(cfg gateway.Config, listen string, n int, peers string, seed uint64, vnodes int, persistDir string, retryAfter time.Duration) {
	ccfg := cluster.Config{
		Seed:                 seed,
		VNodes:               vnodes,
		RetryAfter:           retryAfter,
		PersistSnapshotEvery: int64(cfg.Service.PersistSnapshotEvery),
	}
	// The router gets its own injector: -fault rules naming cluster.*
	// ops fire on the placement/membership log appends (shard-level
	// rules still arm inside each library via the gateway template).
	rinj := faults.New(cfg.FaultSeed)
	for _, r := range cfg.FaultRules {
		if err := rinj.ArmString(r); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	ccfg.Faults = rinj
	if persistDir != "" {
		// Kill-mode rules on router ops exit abruptly — the crash-drill
		// stand-in for kill -9 of the router process. 137 mirrors SIGKILL.
		rinj.SetKill(func() {
			log.Printf("fault injection: router kill point reached, exiting")
			os.Exit(137)
		})
		log.Printf("router persistence enabled: %s", cluster.RouterPersistDir(persistDir))
	}
	var c *cluster.Cluster
	var err error
	if n > 0 {
		cfg.Service.PersistDir = "" // LocalConfig roots per-shard subdirectories
		c, err = cluster.NewLocal(cluster.LocalConfig{
			Libraries:  n,
			Cluster:    ccfg,
			Gateway:    cfg,
			PersistDir: persistDir,
		})
		if err == nil {
			log.Printf("cluster router: %d in-process libraries, ring seed %d", n, seed)
		}
	} else {
		if persistDir != "" {
			ccfg.PersistDir = cluster.RouterPersistDir(persistDir)
		}
		urls := strings.Split(peers, ",")
		for i := range urls {
			urls[i] = strings.TrimSpace(urls[i])
		}
		c, err = cluster.NewRemote(ccfg, urls)
		if err == nil {
			log.Printf("cluster router: %d peer daemons, ring seed %d", len(urls), seed)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	warnTruncated(c.PersistLog(), cluster.RouterPersistDir(persistDir))

	log.Printf("silicad (cluster router) listening on %s", listen)
	serve(listen, c.Handler(), func() error {
		if err := c.Close(); err != nil {
			return err
		}
		st := c.Status()
		log.Printf("drained: %d keys across %d libraries, %d cross-library rebuild reads",
			st.Keys, len(st.Libraries), st.RebuildReads)
		return nil
	})
}
