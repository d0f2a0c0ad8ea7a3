package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"silica/internal/metadata"
	"silica/internal/sim"
	"silica/internal/stats"
)

// LoadConfig shapes a closed-loop load run: Clients goroutines each
// issue OpsPerClient operations back-to-back (the next op starts only
// when the previous completes), with a configurable read/write/delete
// mix — the processor-sharing client model used to study archival
// front ends.
type LoadConfig struct {
	Clients        int
	OpsPerClient   int
	ReadFraction   float64 // fraction of ops that read back a committed object
	DeleteFraction float64 // fraction of ops that delete a committed object
	ObjectBytes    int     // payload size per object
	Seed           uint64
	// Retry is the loop every operation runs under (RetryPolicy.Do):
	// each retryable answer is retried with the policy's backoff until
	// its MaxRetries are spent. Nil makes every operation one attempt.
	Retry *RetryPolicy
	// BeforeVerify, when set, runs after the final flush and before the
	// byte-exact audit — the hook the repair smoke test uses to wait for
	// a mid-run platter kill's rebuild to complete.
	BeforeVerify func()
	// ZipfSkew skews read targets toward a client's oldest committed
	// objects: a read picks index n·u^(1+ZipfSkew) for uniform u, so 0
	// keeps the historical uniform choice and larger values concentrate
	// traffic on a hot set — the access pattern that separates the
	// paper's scheduling policies.
	ZipfSkew float64
}

// LoadReport summarizes a load run. The acceptance bar for the
// gateway: Lost and Corrupted must be zero on any run, and Rejected
// must be nonzero under deliberate overload.
type LoadReport struct {
	Puts, Gets, Deletes int64 // completed operations
	Rejected            int64 // retryable answers (429/503) seen, retried or not
	Dropped             int64 // operations of any class abandoned after their last retry
	Errors              int64 // non-retryable failures
	Lost                int64 // committed objects unreadable at verification
	Corrupted           int64 // committed objects with byte mismatches
	Elapsed             time.Duration
	// Latencies holds exact client-observed quantiles per class (put,
	// get, delete), over successful operations only, each timed from
	// its first attempt to its answer, so retries and their waits count.
	Latencies map[string]stats.Summary
}

// String renders the report.
func (r LoadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "load: %d puts, %d gets, %d deletes in %.2fs (%.0f ops/s)\n",
		r.Puts, r.Gets, r.Deletes, r.Elapsed.Seconds(),
		float64(r.Puts+r.Gets+r.Deletes)/r.Elapsed.Seconds())
	fmt.Fprintf(&b, "load: %d rejected (backpressure), %d dropped, %d errors, %d lost, %d corrupted\n",
		r.Rejected, r.Dropped, r.Errors, r.Lost, r.Corrupted)
	fmt.Fprintf(&b, "%-10s %8s %10s %10s %10s %10s %10s\n",
		"class", "n", "mean", "p50", "p99", "p99.9", "max")
	classes := make([]string, 0, len(r.Latencies))
	for c := range r.Latencies {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		s := r.Latencies[c]
		fmt.Fprintf(&b, "%-10s %8d %10s %10s %10s %10s %10s\n",
			c, s.N, stats.FormatDuration(s.Mean), stats.FormatDuration(s.P50),
			stats.FormatDuration(s.P99), stats.FormatDuration(s.P999), stats.FormatDuration(s.Max))
	}
	return b.String()
}

// payload derives an object's bytes deterministically from its seed,
// so verification can regenerate the expected content instead of
// holding every object in memory.
func payload(seed uint64, n int) []byte {
	r := sim.NewRNG(seed)
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(r.Uint64())
	}
	return out
}

// errMismatch marks a load read that returned other bytes than the
// client wrote: not retryable, so it counts as an error at once (the
// final audit recounts it as Corrupted).
var errMismatch = errors.New("gateway: load read returned other bytes than were written")

// loadClient is one closed-loop client's state.
type loadClient struct {
	id        int
	rng       *sim.RNG
	committed []string          // object names successfully put, not deleted
	seeds     map[string]uint64 // object name -> payload seed
	nextObj   int
	// lat is this client's own latency sample per class (indexed by
	// opKind) — no sharing on the hot path; RunLoad merges the clients'
	// samples when they exit.
	lat [3]stats.Sample
}

// loadTally holds the counters every client of a run adds to.
type loadTally struct {
	done                    [3]atomic.Int64 // completed operations, by opKind
	rejected, dropped, errs atomic.Int64
}

// RunLoad drives api with cfg.Clients concurrent closed-loop clients,
// then flushes and verifies every committed object byte-exactly.
// It works identically against an in-process *Gateway or an HTTP
// *Client pointed at a running silicad.
func RunLoad(api API, cfg LoadConfig) LoadReport {
	if cfg.Clients < 1 {
		cfg.Clients = 1
	}
	var report LoadReport
	var t loadTally
	root := sim.NewRNG(cfg.Seed).Fork("loadgen")
	start := time.Now()

	var mu sync.Mutex // guards the merged committed-object registry and latencies
	allSeeds := make(map[string]uint64)
	var allLat [3]stats.Sample

	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &loadClient{
				id:    c,
				rng:   root.Fork(fmt.Sprintf("client-%d", c)),
				seeds: make(map[string]uint64),
			}
			for op := 0; op < cfg.OpsPerClient; op++ {
				cl.step(api, cfg, &t)
			}
			mu.Lock()
			for name, seed := range cl.seeds {
				allSeeds[name] = seed
			}
			for k := range cl.lat {
				for _, v := range cl.lat[k].Values() {
					allLat[k].Add(v)
				}
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()

	// Drain staging so verification reads exercise the durable path,
	// then check every committed object byte-exactly.
	if err := api.Flush(); err != nil {
		t.errs.Add(1)
	}
	if cfg.BeforeVerify != nil {
		cfg.BeforeVerify()
	}
	for name, seed := range allSeeds {
		got, err := api.Get("load", name)
		if err != nil {
			report.Lost++
			continue
		}
		if !bytes.Equal(got, payload(seed, cfg.ObjectBytes)) {
			report.Corrupted++
		}
	}

	report.Puts = t.done[opPut].Load()
	report.Gets = t.done[opGet].Load()
	report.Deletes = t.done[opDelete].Load()
	report.Rejected = t.rejected.Load()
	report.Dropped = t.dropped.Load()
	report.Errors = t.errs.Load()
	report.Elapsed = time.Since(start)
	report.Latencies = make(map[string]stats.Summary, len(allLat))
	for k := range allLat {
		if allLat[k].N() > 0 {
			report.Latencies[opKind(k).class()] = stats.Summarize(&allLat[k])
		}
	}
	return report
}

// step picks one operation of the client's mix and runs it under
// cfg.Retry: a success is timed and booked, an operation still
// rejected after its last retry is dropped, anything else is an error.
func (cl *loadClient) step(api API, cfg LoadConfig, t *loadTally) {
	kind, i := opPut, 0
	roll := cl.rng.Float64()
	if len(cl.committed) > 0 {
		switch {
		case roll < cfg.ReadFraction:
			kind, i = opGet, cl.readTarget(len(cl.committed), cfg.ZipfSkew)
		case roll < cfg.ReadFraction+cfg.DeleteFraction:
			kind, i = opDelete, cl.rng.Intn(len(cl.committed))
		}
	}
	var name string
	var seed uint64
	var op func() error
	switch kind {
	case opGet:
		name = cl.committed[i]
		op = func() error {
			got, err := api.Get("load", name)
			if err == nil && !bytes.Equal(got, payload(cl.seeds[name], cfg.ObjectBytes)) {
				err = errMismatch
			}
			return err
		}
	case opDelete:
		name = cl.committed[i]
		op = func() error {
			if err := api.Delete("load", name); !errors.Is(err, metadata.ErrNotFound) {
				return err
			}
			return nil // already gone: a retried delete that landed
		}
	default:
		name = fmt.Sprintf("c%d-o%d", cl.id, cl.nextObj)
		cl.nextObj++
		seed = cfg.Seed ^ (uint64(cl.id)<<32 | uint64(cl.nextObj))
		data := payload(seed, cfg.ObjectBytes)
		op = func() error {
			_, err := api.Put("load", name, data)
			return err
		}
	}

	t0 := time.Now()
	err := cfg.Retry.Do(context.TODO(), func() error {
		err := op()
		if retryable(err) {
			t.rejected.Add(1)
		}
		return err
	}, nil)
	switch {
	case retryable(err):
		t.dropped.Add(1)
		return
	case err != nil:
		t.errs.Add(1)
		return
	}
	cl.lat[kind].Add(time.Since(t0).Seconds())
	t.done[kind].Add(1)
	switch kind {
	case opPut:
		cl.committed = append(cl.committed, name)
		cl.seeds[name] = seed
	case opDelete:
		cl.committed = append(cl.committed[:i], cl.committed[i+1:]...)
		delete(cl.seeds, name)
	}
}

// readTarget picks which committed object a read hits: uniform when
// skew is 0, concentrated on the low (oldest) indices otherwise.
func (cl *loadClient) readTarget(n int, skew float64) int {
	if skew <= 0 {
		return cl.rng.Intn(n)
	}
	i := int(float64(n) * math.Pow(cl.rng.Float64(), 1+skew))
	if i >= n {
		i = n - 1
	}
	return i
}
