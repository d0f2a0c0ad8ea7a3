// Package codec provides the parallel execution engine for Silica's
// sector-granular hot paths. The paper's write path is embarrassingly
// parallel by construction (§3.1: sectors are encoded independently;
// §4.2: the decode stack scales out over sector jobs), so every
// CPU-heavy loop in the service — per-track encode, per-sector verify
// read-back, scrub sampling, and rebuild reconstruction — fans its
// iterations out through one shared Engine.
//
// The Engine guarantees nothing about execution order, so callers keep
// determinism the same way the rest of the repository does: every
// iteration derives its own RNG stream (sim.RNG.Fork/ForkAt) from pure
// seed material and writes only to its own index's results. Under that
// discipline a loop's output is bit-identical at any worker count,
// which the service's determinism tests assert end to end.
package codec

import (
	"runtime"
	"sync"
	"sync/atomic"

	"silica/internal/obs"
)

// Engine bounds the concurrency of codec work. A single Engine is
// shared by nested fan-outs (platters → tracks → sectors): helpers are
// admitted by a global token bucket, and the calling goroutine always
// participates, so nesting can never deadlock and total extra
// goroutines stay below the worker budget.
type Engine struct {
	workers int
	tokens  chan struct{}

	// Telemetry. busy counts participants (caller + helpers) inside
	// ForEach right now; the counters accumulate loops, per-iteration
	// jobs, and recruit attempts that found the token bucket empty.
	busy       atomic.Int64
	mJobs      *obs.Counter
	mLoops     *obs.Counter
	mTokenMiss *obs.Counter
}

// NewEngine returns an engine running at most workers iterations
// concurrently; workers <= 0 sizes the pool from GOMAXPROCS. Its
// telemetry goes to reg; nil gets a private registry, so the engine
// never nil-checks.
func NewEngine(workers int, reg *obs.Registry) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e := &Engine{
		workers: workers,
		tokens:  make(chan struct{}, workers-1),
		mJobs: reg.Counter("silica_codec_jobs_total",
			"Iterations executed by the codec engine's fan-out loops."),
		mLoops: reg.Counter("silica_codec_loops_total",
			"ForEach fan-out loops run by the codec engine."),
		mTokenMiss: reg.Counter("silica_codec_token_misses_total",
			"Helper recruit attempts that found the token bucket empty."),
	}
	for i := 0; i < workers-1; i++ {
		e.tokens <- struct{}{}
	}
	busy := reg.Gauge("silica_codec_busy_workers",
		"Participants (caller plus helpers) currently inside ForEach.")
	reg.Gauge("silica_codec_workers",
		"Configured concurrency bound of the codec engine.").Set(float64(workers))
	reg.OnScrape(func() { busy.Set(float64(e.busy.Load())) })
	return e
}

// ForEach runs fn(i) for every i in [0, n), fanning iterations across
// the engine's workers. It returns the error of the lowest failing
// index (remaining iterations are skipped on a best-effort basis once
// any iteration fails). fn must confine its writes to per-index state;
// ForEach establishes a happens-before edge between every fn call and
// its return.
func (e *Engine) ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	e.mLoops.Inc()
	e.mJobs.Add(int64(n))
	e.busy.Add(1)
	defer e.busy.Add(-1)
	if e.workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstIdx = n
		firstErr error
	)
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n || failed.Load() {
				return
			}
			if err := fn(i); err != nil {
				failed.Store(true)
				mu.Lock()
				if i < firstIdx {
					firstIdx, firstErr = i, err
				}
				mu.Unlock()
				return
			}
		}
	}
	// Recruit helpers only while tokens are free; never block waiting
	// for one — the caller works regardless, which is what makes nested
	// ForEach calls safe.
recruit:
	for h := 0; h < min(e.workers, n)-1; h++ {
		select {
		case <-e.tokens:
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.busy.Add(1)
				defer e.busy.Add(-1)
				work()
				e.tokens <- struct{}{}
			}()
		default:
			e.mTokenMiss.Inc()
			break recruit
		}
	}
	work()
	wg.Wait()
	mu.Lock()
	err := firstErr
	mu.Unlock()
	return err
}
