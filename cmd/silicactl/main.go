// Command silicactl drives an in-process Silica service through the
// full data path: put files, flush them to (in-memory) glass, read
// them back through the channel and coding stack, and crypto-shred
// them. It reads a simple command script from stdin or arguments:
//
//	silicactl put acct/name <file
//	silicactl demo
//
// The demo subcommand runs a self-contained put/flush/get/fail/
// recover/delete tour and prints service statistics. The health and
// repair subcommands talk to a running silicad over HTTP:
//
//	silicactl health -url http://host:7070
//	silicactl repair -url http://host:7070 <platter-id>
//	silicactl metrics -url http://host:7070
//	silicactl top -url http://host:7070 -interval 1s
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"silica/internal/cluster"
	"silica/internal/costmodel"
	"silica/internal/gateway"
	"silica/internal/media"
	"silica/internal/obs"
	"silica/internal/service"
	"silica/internal/stats"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "demo":
		demo()
	case "put":
		put(os.Args[2:])
	case "health":
		health(os.Args[2:])
	case "repair":
		repairCmd(os.Args[2:])
	case "metrics":
		metricsCmd(os.Args[2:])
	case "cost":
		costCmd(os.Args[2:])
	case "top":
		top(os.Args[2:])
	case "cluster":
		clusterCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  silicactl demo                 full tour: put/flush/get/fail/recover/delete
  silicactl put  acct/name       store stdin as a file (then flush + read back)
  silicactl health -url URL      platter health registry of a running silicad
  silicactl repair -url URL ID   fail + rebuild platter ID on a running silicad
  silicactl metrics -url URL     dump a running silicad's raw /metrics text
  silicactl top -url URL         live telemetry table from /metrics (-n 1 for one shot)
  silicactl cluster -url URL     ring ownership, per-library health, and redundancy
                                 placement of a silicad -cluster router (/v1/cluster)
  silicactl cost                 §9 TCO comparison tape/HDD/Silica, offline
                                 (-archive-tb/-horizon/... set the workload)`)
	os.Exit(2)
}

// costCmd prints the §9 total-cost-of-ownership comparison, priced
// offline: the model is pure computation over the workload flags.
func costCmd(args []string) {
	fs := flag.NewFlagSet("cost", flag.ExitOnError)
	archive := fs.Float64("archive-tb", 0, "initial archive size in TB (0 = default workload)")
	horizon := fs.Float64("horizon", 0, "horizon in years")
	readTB := fs.Float64("read-tb-year", -1, "customer reads per year, TB")
	writeTB := fs.Float64("write-tb-year", -1, "ingress per year, TB")
	fs.Parse(args)

	wl := costmodel.DefaultWorkload()
	if *archive > 0 {
		wl.ArchiveTB = *archive
	}
	if *horizon > 0 {
		wl.HorizonYears = *horizon
	}
	if *readTB >= 0 {
		wl.ReadTBPerYear = *readTB
	}
	if *writeTB >= 0 {
		wl.WriteTBPerYear = *writeTB
	}

	fmt.Printf("workload: %.0f TB archive, %.0f y horizon, %.0f TB/y reads, %.0f TB/y ingress\n\n",
		wl.ArchiveTB, wl.HorizonYears, wl.ReadTBPerYear, wl.WriteTBPerYear)
	fmt.Printf("%-8s %10s %4s %12s %10s %10s %10s %10s %12s %10s %12s\n",
		"tech", "media", "mig", "migration", "scrub", "environ", "user-io", "process",
		"total $", "$/TB-y", "carbon kg")
	for _, tech := range costmodel.Technologies() {
		b := costmodel.Evaluate(tech, wl)
		fmt.Printf("%-8s %10.0f %4d %12.0f %10.0f %10.0f %10.0f %10.0f %12.0f %10.4f %12.0f\n",
			b.Technology, b.Media, b.Migrations, b.MigrationIO, b.Scrubbing,
			b.Environmental, b.UserIO, b.Processing, b.Total(), costmodel.CostPerTBYear(b, wl), b.CarbonKg)
	}
	fmt.Printf("\n%-40s %-5s %s\n", "dimension", "tape", "silica")
	for _, r := range costmodel.BuildTable2().Rows {
		fmt.Printf("%-40s %-5s %s\n", r.Dimension, r.Tape, r.Silica)
	}
}

// metricsCmd dumps the raw Prometheus exposition of a running daemon —
// what a scrape job would see, and what `make obs-smoke` greps.
func metricsCmd(args []string) {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	url := fs.String("url", "http://127.0.0.1:7070", "silicad base URL")
	fs.Parse(args)
	text, err := gateway.NewClient(*url).MetricsText()
	check(err)
	fmt.Print(text)
}

// top polls /metrics and renders the whole stack's telemetry as a
// compact table: per-class queue state and request percentiles, staging
// occupancy, codec engine load, and repair activity; against a cluster
// router, the router's status too.
func top(args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	url := fs.String("url", "http://127.0.0.1:7070", "silicad base URL")
	interval := fs.Duration("interval", time.Second, "refresh period")
	iters := fs.Int("n", 0, "refresh count (0 = until interrupted)")
	fs.Parse(args)
	c := gateway.NewClient(*url)
	for i := 0; *iters == 0 || i < *iters; i++ {
		if i > 0 {
			time.Sleep(*interval)
			fmt.Print("\033[H\033[2J") // home + clear between refreshes
		}
		samples, err := c.Metrics()
		check(err)
		printTop(*url, samples)
		// A cluster router's own state is its /v1/cluster status.
		if _, ok := obs.FindSample(samples, "silica_cluster_ring_version", nil); ok {
			cst, err := cluster.FetchStatus(nil, *url)
			check(err)
			fmt.Printf("cluster  %s", cst)
		}
	}
}

func printTop(url string, samples []obs.PromSample) {
	val := func(name string, labels map[string]string) float64 {
		s, _ := obs.FindSample(samples, name, labels)
		return s.Value
	}
	fmt.Printf("silica top — %s\n\n", url)
	fmt.Printf("%-7s %6s %5s %10s %10s %10s %10s %10s\n",
		"class", "queue", "cap", "admitted", "rejected", "done", "p50", "p99")
	for _, class := range []string{"put", "get", "delete"} {
		l := obs.L("class", class)
		lm := map[string]string{l.Key: l.Value}
		p50, _ := obs.HistQuantile(samples, "silica_gateway_request_seconds", lm, 0.50)
		p99, _ := obs.HistQuantile(samples, "silica_gateway_request_seconds", lm, 0.99)
		fmt.Printf("%-7s %6.0f %5.0f %10.0f %10.0f %10.0f %10s %10s\n",
			class,
			val("silica_gateway_queue_depth", lm),
			val("silica_gateway_queue_capacity", lm),
			val("silica_gateway_admitted_total", lm),
			val("silica_gateway_rejected_total", lm),
			val("silica_gateway_completed_total", lm),
			stats.FormatDuration(p50), stats.FormatDuration(p99))
	}
	flushP99, _ := obs.HistQuantile(samples, "silica_gateway_flush_seconds", nil, 0.99)
	fmt.Printf("\nstaging  %s used / %s cap, peak %s, %0.f file(s) pending\n",
		stats.FormatBytes(val("silica_staging_used_bytes", nil)),
		stats.FormatBytes(val("silica_staging_capacity_bytes", nil)),
		stats.FormatBytes(val("silica_staging_peak_bytes", nil)),
		val("silica_staging_pending_files", nil))
	encP50, _ := obs.HistQuantile(samples, "silica_codec_encode_seconds", nil, 0.50)
	decP50, _ := obs.HistQuantile(samples, "silica_codec_decode_seconds", nil, 0.50)
	fmt.Printf("codec    %.0f/%.0f workers busy, %.0f jobs (%.0f token misses)\n",
		val("silica_codec_busy_workers", nil),
		val("silica_codec_workers", nil),
		val("silica_codec_jobs_total", nil),
		val("silica_codec_token_misses_total", nil))
	fmt.Printf("  ldpc   encode p50 %s (%.0f sectors, %.0f/s), decode p50 %s (%.0f sectors, %.0f/s)\n",
		stats.FormatDuration(encP50),
		val("silica_codec_sectors_total", map[string]string{"op": "encode"}),
		val("silica_codec_sectors_per_second", map[string]string{"op": "encode"}),
		stats.FormatDuration(decP50),
		val("silica_codec_sectors_total", map[string]string{"op": "decode"}),
		val("silica_codec_sectors_per_second", map[string]string{"op": "decode"}))
	fmt.Printf("flush    %.0f passes, p99 %s\n",
		val("silica_gateway_flushes_total", nil), stats.FormatDuration(flushP99))
	fmt.Printf("repair   %.0f scrubs (%.0f sector failures), rebuilds %.0f done / %.0f failed, %.0f active\n",
		val("silica_repair_scrubs_total", nil),
		val("silica_repair_scrub_sector_failures_total", nil),
		val("silica_repair_rebuilds_total", map[string]string{"outcome": "done"}),
		val("silica_repair_rebuilds_total", map[string]string{"outcome": "failed"}),
		val("silica_repair_rebuilds_active", nil))
	fmt.Printf("health  ")
	for _, s := range samples {
		if s.Name == "silica_platter_health" && s.Value > 0 {
			fmt.Printf(" %.0f %s", s.Value, s.Labels["state"])
		}
	}
	fmt.Println()
	printBackend(samples)
}

// clusterCmd renders a cluster router's GET /v1/cluster: ring
// ownership, per-library serving state, and redundancy placement.
// -rebalance runs a reconcile pass first (POST /v1/cluster/rebalance)
// and prints its report, including the aggregated per-key errors.
func clusterCmd(args []string) {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	url := fs.String("url", "http://127.0.0.1:7070", "cluster router base URL")
	rebalance := fs.Bool("rebalance", false, "run a reconcile pass before reporting")
	workers := fs.Int("workers", 0, "rebalance parallelism (0 = router default)")
	fs.Parse(args)
	rebalanceFailed := false
	if *rebalance {
		rebalanceFailed = runRebalance(*url, *workers)
	}
	st, err := cluster.FetchStatus(nil, *url)
	check(err)

	fmt.Printf("cluster %s: %s", *url, st)
	if rebalanceFailed {
		os.Exit(1)
	}
}

// runRebalance posts /v1/cluster/rebalance and prints the report. A
// report with per-key errors still prints — the aggregation is the
// feature — but exits nonzero so scripts notice.
func runRebalance(url string, workers int) bool {
	path := "/v1/cluster/rebalance"
	if workers > 0 {
		path += fmt.Sprintf("?workers=%d", workers)
	}
	var rep cluster.RebalanceReport
	check(gateway.NewClient(url).Call(context.Background(), http.MethodPost, path, nil, &rep))
	fmt.Printf("rebalance %d keys examined, %d moved (%s), %d lost, %d errors\n",
		rep.KeysExamined, rep.KeysMoved, stats.FormatBytes(float64(rep.BytesMoved)), rep.Lost, rep.Errors)
	for _, s := range rep.ErrorSamples {
		fmt.Printf("  error   %s\n", s)
	}
	fmt.Println()
	return rep.Errors > 0
}

// printBackend renders the media backend's mechanical telemetry, named
// by silica_backend_info: the twin's virtual clock, in-flight charges,
// per-class scheduler queues, the Figure-6 drive-time breakdown, and
// shuttle motion totals. A direct backend gets a single identifying
// line; a daemon without the family (a router) gets none.
func printBackend(samples []obs.PromSample) {
	info, ok := obs.FindSample(samples, "silica_backend_info", nil)
	if !ok {
		return
	}
	if info.Labels["backend"] != "twin" {
		fmt.Printf("backend  %s (no mechanical latency)\n", info.Labels["backend"])
		return
	}
	val := func(name string, labels map[string]string) float64 {
		s, _ := obs.FindSample(samples, name, labels)
		return s.Value
	}
	fmt.Printf("backend  twin policy=%s speedup=%sx, virtual clock %.1fs, %.0f op(s) in flight\n",
		info.Labels["policy"], info.Labels["speedup"],
		val("silica_backend_virtual_seconds", nil),
		val("silica_backend_inflight_ops", nil))
	fmt.Printf("  queues ")
	for _, class := range []string{"read", "burn", "rebuild", "scrub"} {
		fmt.Printf(" %s=%.0f", class, val("silica_backend_queue_depth", map[string]string{"class": class}))
	}
	fmt.Println()
	fmt.Printf("  drives ")
	for _, state := range []string{"read", "verify", "mount", "switch", "idle"} {
		fmt.Printf(" %s=%.0f%%", state, 100*val("silica_backend_drive_util", map[string]string{"state": state}))
	}
	fmt.Println()
	fmt.Printf("  shuttles %.0f travels (%.1fs moving, %.1fs congested), %.0f platter ops\n",
		val("silica_backend_shuttle_travels", nil),
		val("silica_backend_shuttle_travel_seconds_total", nil),
		val("silica_backend_shuttle_congestion_seconds_total", nil),
		val("silica_backend_shuttle_platter_ops", nil))
}

// health prints a running daemon's liveness summary and per-platter
// health registry, including transition histories.
func health(args []string) {
	fs := flag.NewFlagSet("health", flag.ExitOnError)
	url := fs.String("url", "http://127.0.0.1:7070", "silicad base URL")
	fs.Parse(args)
	c := gateway.NewClient(*url)
	hz, err := c.Healthz()
	check(err)
	snap, err := c.HealthPlatters()
	check(err)
	fmt.Printf("status: %s", hz.Status)
	if hz.Status != "ok" {
		fmt.Printf(" (%d degraded sets, %d rebuilds active)", hz.DegradedSets, hz.RebuildsActive)
	}
	fmt.Println()
	fmt.Printf("platters:")
	for state, n := range snap.Counts {
		fmt.Printf(" %d %s", n, state)
	}
	fmt.Println()
	for _, p := range snap.Platters {
		set := "unassigned"
		if p.Set >= 0 {
			kind := "info"
			if p.Redundancy {
				kind = "red"
			}
			set = fmt.Sprintf("set %d pos %d (%s)", p.Set, p.SetPos, kind)
		}
		fmt.Printf("  platter %-4d %-10s %s\n", p.Platter, p.Health, set)
		for _, tr := range p.History {
			fmt.Printf("    %s -> %-10s %s\n", tr.From, tr.To, tr.Reason)
		}
	}
}

// repairCmd asks a running daemon to fail and rebuild one platter.
func repairCmd(args []string) {
	fs := flag.NewFlagSet("repair", flag.ExitOnError)
	url := fs.String("url", "http://127.0.0.1:7070", "silicad base URL")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: silicactl repair -url URL <platter-id>")
		os.Exit(2)
	}
	id, err := strconv.Atoi(fs.Arg(0))
	check(err)
	c := gateway.NewClient(*url)
	check(c.Repair(media.PlatterID(id)))
	fmt.Printf("platter %d queued for rebuild\n", id)
}

func splitKey(s string) (string, string) {
	i := strings.IndexByte(s, '/')
	if i < 0 {
		fmt.Fprintf(os.Stderr, "key %q must be account/name\n", s)
		os.Exit(2)
	}
	return s[:i], s[i+1:]
}

// put stores stdin as one file in a fresh in-memory service, then
// flushes it and verifies a read-back so the invocation demonstrates
// the whole path.
func put(args []string) {
	if len(args) < 1 {
		usage()
	}
	account, name := splitKey(args[0])
	svc, err := service.New(service.DefaultConfig())
	check(err)
	data, err := io.ReadAll(os.Stdin)
	check(err)
	_, err = svc.Put(account, name, data)
	check(err)
	check(svc.Flush())
	got, err := svc.Get(account, name)
	check(err)
	if !bytes.Equal(got, data) {
		fmt.Fprintln(os.Stderr, "read-back mismatch")
		os.Exit(1)
	}
	st := svc.Stats()
	fmt.Printf("stored %d bytes durably: %d platter(s), %d sectors, verify margin %.2f\n",
		len(data), st.PlattersWritten, st.SectorsWritten, st.MinVerifyMargin)
}

func demo() {
	cfg := service.DefaultConfig()
	svc, err := service.New(cfg)
	check(err)

	fmt.Println("== Put: four archive files across two accounts")
	payloads := map[string][]byte{}
	for i, key := range []string{"acme/ledger", "acme/backup", "globex/report", "globex/media"} {
		account, name := splitKey(key)
		data := bytes.Repeat([]byte(fmt.Sprintf("%s:%d|", key, i)), 400+300*i)
		payloads[key] = data
		_, err := svc.Put(account, name, data)
		check(err)
		fmt.Printf("  staged %-14s %6d bytes\n", key, len(data))
	}
	fmt.Printf("  staging holds %d bytes\n\n", svc.StagedBytes())

	fmt.Println("== Flush: encode (LDPC + 3-level NC), write, verify")
	check(svc.Flush())
	st := svc.Stats()
	fmt.Printf("  %d platters written, %d sectors, redundancy %d bytes, min verify margin %.2f\n\n",
		st.PlattersWritten, st.SectorsWritten, st.RedundancyBytes, st.MinVerifyMargin)

	fmt.Println("== Get: read back through the noisy channel")
	for key, want := range payloads {
		account, name := splitKey(key)
		got, err := svc.Get(account, name)
		check(err)
		if !bytes.Equal(got, want) {
			fmt.Fprintf(os.Stderr, "  %s: MISMATCH\n", key)
			os.Exit(1)
		}
		fmt.Printf("  %-14s ok (%d bytes)\n", key, len(got))
	}

	// Complete a platter-set so cross-platter recovery has redundancy
	// to draw on, then fail a platter and recover through the set.
	fmt.Println("\n== Filling a platter-set for cross-platter protection")
	platterBytes := int(cfg.Geom.PlatterUserBytes())
	for i := 0; i < cfg.SetInfo; i++ {
		name := fmt.Sprintf("bulk%d", i)
		_, err := svc.Put("acme", name, bytes.Repeat([]byte{byte(i + 1)}, platterBytes*3/4))
		check(err)
		check(svc.Flush())
	}
	st = svc.Stats()
	fmt.Printf("  sets completed: %d (+%d redundancy platters)\n\n", st.SetsCompleted, st.RedundancyPlatters)

	fmt.Println("== Failing a platter; reading through 16x-style set recovery")
	v, err := svc.Metadata().Get(struct{ Account, Name string }{"acme", "bulk0"})
	check(err)
	failed := media.PlatterID(v.Extents[0].Platter)
	check(svc.FailPlatter(failed))
	got, err := svc.Get("acme", "bulk0")
	check(err)
	fmt.Printf("  recovered %d bytes from platter-set peers (recoveries: %d)\n\n",
		len(got), svc.Stats().PlatterRecovers)

	fmt.Println("== Delete: crypto-shredding")
	check(svc.Delete("globex", "report"))
	if _, err := svc.Get("globex", "report"); err == nil {
		fmt.Fprintln(os.Stderr, "deleted file still readable")
		os.Exit(1)
	}
	fmt.Println("  globex/report unreadable forever (key destroyed)")
	final := svc.Stats()
	fmt.Printf("\nfinal stats: %d files, %d platters, %d sector repairs, %d track rebuilds, %d set recoveries\n",
		final.Files, final.PlattersWritten, final.SectorRepairs, final.TrackRebuilds, final.PlatterRecovers)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
