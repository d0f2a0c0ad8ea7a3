package gateway

import (
	"bytes"
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
	// MaxRetries bounds per-op retries after ErrOverloaded; each retry
	// backs off linearly. 0 means rejected ops are dropped immediately.
	MaxRetries int
	// RetryBackoff is the base backoff after an overload rejection.
	RetryBackoff time.Duration
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
	Rejected            int64 // admission-control rejections observed
	Dropped             int64 // puts abandoned after MaxRetries (never committed)
	Errors              int64 // non-overload errors
	Lost                int64 // committed objects unreadable at verification
	Corrupted           int64 // committed objects with byte mismatches
	Elapsed             time.Duration
	// Latencies holds exact client-observed quantiles per class (put,
	// get, delete), over successful operations only.
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

// RunLoad drives api with cfg.Clients concurrent closed-loop clients,
// then flushes and verifies every committed object byte-exactly.
// It works identically against an in-process *Gateway or an HTTP
// *Client pointed at a running silicad.
func RunLoad(api API, cfg LoadConfig) LoadReport {
	if cfg.Clients < 1 {
		cfg.Clients = 1
	}
	var report LoadReport
	var puts, gets, deletes, rejected, dropped, errs atomic.Int64
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
				cl.step(api, cfg, &puts, &gets, &deletes, &rejected, &dropped, &errs)
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
		errs.Add(1)
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

	report.Puts = puts.Load()
	report.Gets = gets.Load()
	report.Deletes = deletes.Load()
	report.Rejected = rejected.Load()
	report.Dropped = dropped.Load()
	report.Errors = errs.Load()
	report.Elapsed = time.Since(start)
	report.Latencies = make(map[string]stats.Summary, len(allLat))
	for k := range allLat {
		if allLat[k].N() > 0 {
			report.Latencies[opKind(k).class()] = stats.Summarize(&allLat[k])
		}
	}
	return report
}

// step runs one operation of the client's mix.
func (cl *loadClient) step(api API, cfg LoadConfig,
	puts, gets, deletes, rejected, dropped, errs *atomic.Int64) {
	roll := cl.rng.Float64()
	switch {
	case roll < cfg.ReadFraction && len(cl.committed) > 0:
		name := cl.committed[cl.readTarget(len(cl.committed), cfg.ZipfSkew)]
		t0 := time.Now()
		got, err := getWithRetry(api, cfg, "load", name, rejected)
		if err != nil {
			errs.Add(1)
			return
		}
		cl.lat[opGet].Add(time.Since(t0).Seconds())
		gets.Add(1)
		if !bytes.Equal(got, payload(cl.seeds[name], cfg.ObjectBytes)) {
			// Surface corruption immediately as an error; the final
			// verification pass recounts it authoritatively.
			errs.Add(1)
		}
	case roll < cfg.ReadFraction+cfg.DeleteFraction && len(cl.committed) > 0:
		i := cl.rng.Intn(len(cl.committed))
		name := cl.committed[i]
		t0 := time.Now()
		if err := api.Delete("load", name); err != nil {
			if errors.Is(err, metadata.ErrNotFound) {
				// Deleted concurrently; treat as done.
			} else {
				errs.Add(1)
				return
			}
		}
		cl.lat[opDelete].Add(time.Since(t0).Seconds())
		deletes.Add(1)
		cl.committed = append(cl.committed[:i], cl.committed[i+1:]...)
		delete(cl.seeds, name)
	default:
		name := fmt.Sprintf("c%d-o%d", cl.id, cl.nextObj)
		cl.nextObj++
		seed := cfg.Seed ^ (uint64(cl.id)<<32 | uint64(cl.nextObj))
		data := payload(seed, cfg.ObjectBytes)
		for attempt := 0; ; attempt++ {
			t0 := time.Now()
			_, err := api.Put("load", name, data)
			if err == nil {
				cl.lat[opPut].Add(time.Since(t0).Seconds())
				puts.Add(1)
				cl.committed = append(cl.committed, name)
				cl.seeds[name] = seed
				return
			}
			if errors.Is(err, ErrOverloaded) {
				rejected.Add(1)
				if attempt >= cfg.MaxRetries {
					dropped.Add(1)
					return
				}
				time.Sleep(cfg.RetryBackoff * time.Duration(attempt+1))
				continue
			}
			errs.Add(1)
			return
		}
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

// getWithRetry retries reads rejected by a full read queue.
func getWithRetry(api API, cfg LoadConfig, account, name string, rejected *atomic.Int64) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt <= cfg.MaxRetries; attempt++ {
		got, err := api.Get(account, name)
		if err == nil {
			return got, nil
		}
		lastErr = err
		if !errors.Is(err, ErrOverloaded) {
			return nil, err
		}
		rejected.Add(1)
		time.Sleep(cfg.RetryBackoff * time.Duration(attempt+1))
	}
	return nil, lastErr
}
