package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"silica/internal/obs"
)

// referenceSeconds is the default -seconds and BENCHMARK.json's
// run_seconds.
const referenceSeconds = 12

// Set-up repeats at least minSetups times and then until setupBudget
// has gone into set-ups (at most maxSetups times): setup_s is the
// fastest, and a one-second set-up needs more tries than a three-second
// one to land outside a slow episode of the host.
const (
	minSetups   = 3
	maxSetups   = 8
	setupBudget = 5 * time.Second
)

// runConfig is one invocation of one workload.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	quick    bool
	dir      string // scratch root; each set-up gets a subdirectory
	traceOut string // span dump path ("" = <dir>/trace-<workload>.json)
}

func (c runConfig) sizing() sizing {
	sz := sizing{seconds: c.seconds, setups: minSetups, quick: c.quick}
	if c.quick || c.trace {
		sz.setups = 1 // setup_s is not a per-layer metric
	}
	return sz
}

// samples is one scrape of every registry of a stack.
type samples []obs.PromSample

func scrape(st *stack) (samples, error) {
	var all samples
	for _, reg := range st.registries() {
		var buf bytes.Buffer
		if err := reg.WriteProm(&buf); err != nil {
			return nil, err
		}
		s, err := obs.ParseProm(&buf)
		if err != nil {
			return nil, err
		}
		all = append(all, s...)
	}
	return all, nil
}

// sum adds every sample of name whose labels include the given
// key, value pairs — across members, and across label values not named.
func (s samples) sum(name string, kv ...string) float64 {
	var total float64
next:
	for _, p := range s {
		if p.Name != name {
			continue
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if p.Labels[kv[i]] != kv[i+1] {
				continue next
			}
		}
		total += p.Value
	}
	return total
}

// delta is the change of every series between two scrapes.
type delta struct{ before, after samples }

func (d delta) sum(name string, kv ...string) float64 {
	return d.after.sum(name, kv...) - d.before.sum(name, kv...)
}

// mean is a histogram's mean observation over the interval, in the
// histogram's unit (0 when nothing was observed).
func (d delta) mean(name string, kv ...string) float64 {
	n := d.sum(name+"_count", kv...)
	if n == 0 {
		return 0
	}
	return d.sum(name+"_sum", kv...) / n
}

// runState carries what verify and the per-layer report need.
type runState struct {
	tr     *tracer
	rounds []*roundResult
	delta  delta // registries over the measured phase

	statsBefore, statsAfter svcStats
	recoveryS               float64
	auditPhase              int
	auditAttempted          int
	auditFailed             int
}

// svcStats sums the service counters that have no registry family.
type svcStats struct {
	platters, redPlatters int
	stored, redundancy    int64
}

func readStats(st *stack) svcStats {
	var s svcStats
	for _, g := range st.gws {
		x := g.Service().Stats()
		s.platters += x.PlattersWritten
		s.redPlatters += x.RedundancyPlatters
		s.stored += x.BytesStored
		s.redundancy += x.RedundancyBytes
	}
	return s
}

// result is what one run reports.
type result struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Error     string             `json:"error,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Rounds    []roundReport      `json:"rounds"`
	SetupS    []float64          `json:"setup_s_each"`
	Reconcile []string           `json:"reconciliation,omitempty"`
	WallS     float64            `json:"wall_s"`
}

type roundReport struct {
	Traced    bool    `json:"traced"`
	WallS     float64 `json:"wall_s"`
	FlushS    float64 `json:"flush_s,omitempty"`
	Ops       int     `json:"ops"`
	UserBytes int64   `json:"user_bytes"`
	Puts      int     `json:"puts,omitempty"`
	Gets      int     `json:"gets,omitempty"`
	Deletes   int     `json:"deletes,omitempty"`
}

// runWorkload runs one workload end to end in this process.
func runWorkload(cfg runConfig) (res *result, err error) {
	began := time.Now()
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	sz := cfg.sizing()
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	w.prepare(rng, sz)

	run := &runState{tr: newTracer(), auditPhase: rng.Intn(8)}
	res = &result{Workload: cfg.workload}
	base, err := os.MkdirTemp(cfg.dir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	// Set-up, repeated on fresh directories; the last stack is measured.
	var st *stack
	defer func() {
		if st != nil {
			if cerr := st.close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}()
	var setupSpent time.Duration
	for i := 0; i < sz.setups || (sz.setups == minSetups && i < maxSetups && setupSpent < setupBudget); i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
			os.RemoveAll(st.dir)
			st = nil
		}
		dir := filepath.Join(base, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		if w.clustered() {
			st, err = newClusterStack(dir, false)
		} else {
			st, err = newSingleStack(dir)
		}
		if err != nil {
			return nil, err
		}
		attempted, failed, err := w.setup(st, run.tr)
		setupSpent += time.Since(t0)
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
		res.Attempted += attempted
		res.Failed += failed
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
	}

	// Measured phase.
	runtime.GC()
	run.statsBefore = readStats(st)
	if run.delta.before, err = scrape(st); err != nil {
		return nil, err
	}
	for r := 0; r < w.numRounds(); r++ {
		// Traced runs alternate traced and untraced rounds so the span
		// overhead is measured inside one process on one state.
		traced := cfg.trace && r%2 == 0
		run.tr.on.Store(traced)
		cpu0, alloc0 := cpuSeconds(), totalAlloc()
		rr, err := w.round(st, run.tr, r)
		rr.cpuS = cpuSeconds() - cpu0
		rr.allocB = totalAlloc() - alloc0
		rr.traced = traced
		run.tr.on.Store(false)
		if err != nil {
			return nil, fmt.Errorf("%s: round %d: %w", cfg.workload, r, err)
		}
		run.rounds = append(run.rounds, &rr)
		res.Attempted += rr.ops + rr.checked
		res.Failed += rr.failed
		res.Rounds = append(res.Rounds, roundReport{
			Traced: traced, WallS: rr.wall, FlushS: rr.flushS, Ops: rr.ops, UserBytes: rr.userBytes,
			Puts: len(rr.lat[opPut]), Gets: len(rr.lat[opGet]), Deletes: len(rr.lat[opDelete]),
		})
	}
	if run.delta.after, err = scrape(st); err != nil {
		return nil, err
	}
	run.statsAfter = readStats(st)

	// Invariants; a violation fails the run rather than producing numbers.
	var verr error
	st, verr = w.verify(st, run)
	res.Attempted += run.auditAttempted
	res.Failed += run.auditFailed
	if verr != nil {
		res.Error = verr.Error()
	}
	res.Correct = verr == nil && res.Failed == 0

	res.EndToEnd = run.endToEnd(res.SetupS)
	if cfg.trace {
		res.PerLayer = run.counters()
		run.tr.on.Store(true)
		ladderDir := filepath.Join(base, "ladder")
		lad, lines, err := runLadder(ladderDir, run.tr, cfg.quick)
		run.tr.on.Store(false)
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		for k, v := range lad {
			res.PerLayer[k] = v
		}
		res.Reconcile = lines
		out := cfg.traceOut
		if out == "" {
			out = filepath.Join(cfg.dir, "trace-"+cfg.workload+".json")
		}
		if err := run.tr.writeFile(out); err != nil {
			return nil, err
		}
	}
	res.WallS = time.Since(began).Seconds()
	return res, nil
}

// endToEnd computes the end-to-end metrics. Timings come from the
// fastest two rounds measured as one pool; allocation, which
// neighbours cannot disturb, from all of them.
func (run *runState) endToEnd(setups []float64) map[string]float64 {
	fast := fastest(run.rounds)
	fastestSetup := setups[0]
	for _, s := range setups {
		fastestSetup = math.Min(fastestSetup, s)
	}
	return map[string]float64{
		"setup_s":                   fastestSetup,
		"goodput_mbps":              fast.goodput(),
		"op_p50_ms":                 fast.opPercentile(0.50),
		"cpu_s_per_user_mb":         fast.cpuPerMB(),
		"alloc_bytes_per_user_byte": pool(run.rounds).allocPerByte(),
	}
}

// counters derives the second block of per-layer metrics: counts and
// busy time over the measured phase, read at the layers' own
// boundaries (the obs registries the benchmark holds).
func (run *runState) counters() map[string]float64 {
	d := run.delta
	m := map[string]float64{}
	var putBytes, infoSectors float64
	var ops, puts int
	var cpuS, wall, flushS, putSyncs float64
	var all [numOpKinds][]float64
	maxMs := 0.0
	for _, r := range run.rounds {
		putBytes += float64(r.putBytes)
		infoSectors += float64(r.sectors)
		ops += r.ops
		puts += len(r.lat[opPut])
		cpuS += r.cpuS
		wall += r.wall
		flushS += r.flushS
		putSyncs += float64(r.putSyncs)
		for k := range r.lat {
			all[k] = append(all[k], r.lat[k]...)
			for _, v := range r.lat[k] {
				if v > maxMs {
					maxMs = v
				}
			}
		}
	}
	phases := []string{"batch", "encode", "burn", "verify", "publish"}
	var flushTotal float64
	for _, p := range phases {
		v := d.sum("silica_flush_phase_seconds_sum", "phase", p)
		m["service.flush_"+p+"_s"] = v
		flushTotal += v
	}
	m["service.flush_verify_share"] = ratio(m["service.flush_verify_s"], flushTotal)

	enc := d.sum("silica_codec_sectors_total", "op", "encode")
	dec := d.sum("silica_codec_sectors_total", "op", "decode")
	m["codec.encode_sectors"] = enc
	m["codec.decode_sectors"] = dec
	// Batched encodes observe their per-sector mean once per batch, so
	// busy time is the mean observation times the sectors encoded.
	m["codec.encode_busy_s"] = d.mean("silica_codec_encode_seconds") * enc
	m["codec.decode_busy_s"] = d.sum("silica_codec_decode_seconds_sum")
	m["codec.jobs"] = d.sum("silica_codec_jobs_total")
	m["codec.token_misses"] = d.sum("silica_codec_token_misses_total")
	m["codec.busy_share_of_cpu"] = ratio(m["codec.encode_busy_s"]+m["codec.decode_busy_s"], cpuS)

	m["service.decoded_sectors_per_info_sector"] = ratio(dec, infoSectors)
	m["service.sector_repairs"] = d.sum("silica_read_recoveries_total", "tier", "sector")
	m["service.set_recoveries"] = d.sum("silica_read_recoveries_total", "tier", "set")
	m["service.platters_written"] = float64(run.statsAfter.platters - run.statsBefore.platters)
	m["service.redundancy_platters"] = float64(run.statsAfter.redPlatters - run.statsBefore.redPlatters)
	m["service.stored_bytes_per_user_byte"] = ratio(
		float64(run.statsAfter.stored+run.statsAfter.redundancy-run.statsBefore.stored-run.statsBefore.redundancy), putBytes)

	m["gateway.queue_wait_put_us"] = 1e6 * d.mean("silica_gateway_queue_wait_seconds", "class", "put")
	m["gateway.queue_wait_get_us"] = 1e6 * d.mean("silica_gateway_queue_wait_seconds", "class", "get")
	m["gateway.request_put_us"] = 1e6 * d.mean("silica_gateway_request_seconds", "class", "put")
	m["gateway.request_get_us"] = 1e6 * d.mean("silica_gateway_request_seconds", "class", "get")

	m["persist.fsyncs_per_put"] = ratio(putSyncs, float64(puts))
	m["persist.fsync_mean_us"] = 1e6 * d.mean("silica_persist_fsync_seconds")
	m["persist.wal_bytes_per_user_byte"] = ratio(d.sum("silica_persist_wal_bytes_total"), putBytes)
	m["persist.snapshots"] = d.sum("silica_persist_snapshots_total")
	m["persist.recovery_s"] = run.recoveryS
	m["cluster.routed_per_op"] = ratio(d.sum("silica_cluster_routed_total"), float64(ops))

	for k, name := range []string{"put", "get", "delete"} {
		m["client."+name+"_p50_ms"] = percentile(all[k], 0.50)
		m["client."+name+"_p99_ms"] = percentile(all[k], 0.99)
	}
	m["client.max_ms"] = maxMs
	// The workload's op (see opPercentile) at p90, over the fastest rounds
	// like the end-to-end timings: ungated, because on durable_read it sits
	// on the edge of the within-track-repair mode.
	m["client.op_p90_ms"] = fastest(run.rounds).opPercentile(0.90)
	m["client.ops_per_s"] = ratio(float64(ops), wall)
	// Every round, not the fastest two: a slow round the program
	// itself caused stays visible here.
	m["client.goodput_all_rounds_mbps"] = pool(run.rounds).goodput()
	m["client.flush_s_per_user_mb"] = ratio(flushS, putBytes/1e6)

	// Tracing overhead: the traced rounds' fastest two against the
	// untraced rounds' fastest two of the same run.
	var traced, untraced []*roundResult
	for _, r := range run.rounds {
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	m["trace.overhead_frac"] = 0 // a single (quick) round has nothing to compare
	if len(untraced) > 0 && len(traced) > 0 {
		m["trace.overhead_frac"] = 1 - fastest(traced).goodput()/fastest(untraced).goodput()
	}
	return m
}

func (r *result) summaryLine() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: correct=%v attempted=%d failed=%d wall=%.1fs", r.Workload, r.Correct, r.Attempted, r.Failed, r.WallS)
	if r.Error != "" {
		fmt.Fprintf(&b, " error=%q", r.Error)
	}
	return b.String()
}
