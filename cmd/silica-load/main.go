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
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"time"

	"silica/internal/cluster"
	"silica/internal/gateway"
	"silica/internal/obs"
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

	if *url != "" && *clusterN > 0 {
		fmt.Fprintln(os.Stderr, "-cluster needs the in-process archive (no -url); point -url at a silicad -cluster router instead")
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
			defer cl.Close()
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

	// The server's numbers are read before the audit, whose durable Gets
	// the client sample never sees.
	var samples []obs.PromSample
	var serr error
	lc.BeforeVerify = func() { samples, serr = scrapeMetrics(api) }

	rep := gateway.RunLoad(api, lc)
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
