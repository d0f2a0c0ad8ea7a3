// Package gateway is the concurrent serving layer in front of the
// Silica storage service: the piece that absorbs the bursty, many-
// client traffic of §2/§3.1 and turns it into the smooth, batched
// stream the write drives want. It provides
//
//   - bounded per-class request queues (writes vs. reads) drained by
//     a configurable worker pool, so a flood of Puts cannot starve
//     Gets and vice versa;
//   - admission control: requests are rejected with ErrOverloaded
//     (HTTP 429) when a queue is full or the staging tier is above
//     its high watermark, instead of queueing without bound;
//   - a flush scheduler that triggers platter flushes on staged-bytes
//     and staged-age watermarks, replacing manual Flush calls;
//   - graceful shutdown that stops admission, drains in-flight
//     requests, and flushes staging.
//
// The same Gateway serves an HTTP/JSON API (http.go) and an
// in-process Go API (this file), so tests and the load generator can
// drive either transport.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"silica/internal/backend"
	"silica/internal/faults"
	"silica/internal/media"
	"silica/internal/obs"
	"silica/internal/repair"
	"silica/internal/service"
	"silica/internal/staging"
)

// ErrOverloaded is the admission-control rejection: a request queue is
// full or staging is above its high watermark. Clients should back off
// and retry; the HTTP layer maps it to 429 Too Many Requests.
var ErrOverloaded = errors.New("gateway: overloaded, retry later")

// ErrClosed is returned for requests arriving after Close began.
var ErrClosed = errors.New("gateway: shutting down")

// ErrReserved refuses an object request for a name its store keeps
// for itself (the cluster router's replica namespace). The HTTP layer
// maps it to 400 Bad Request.
var ErrReserved = errors.New("gateway: reserved namespace")

// Config sizes the gateway.
type Config struct {
	Service service.Config

	// Worker-pool width per request class.
	WriteWorkers int
	ReadWorkers  int

	// Queue depths per request class; a full queue rejects with
	// ErrOverloaded rather than blocking the client.
	WriteQueue int
	ReadQueue  int

	// StagingHighWatermark is the fraction of staging capacity above
	// which new writes are rejected (0 disables the check; only
	// meaningful when Service.StagingCapacity > 0). Rejecting at a
	// watermark below 1.0 leaves headroom for requests already in the
	// queue.
	StagingHighWatermark float64

	// FlushBytes triggers a scheduled flush once staged bytes reach
	// this size watermark. 0 defaults to one platter's user bytes:
	// flush as soon as a full platter can be packed.
	FlushBytes int64

	// FlushAge triggers a flush once the oldest staged file has waited
	// this long, bounding time-to-durable under light load. 0 disables
	// the age watermark.
	FlushAge time.Duration

	// FlushInterval is the scheduler's evaluation period.
	FlushInterval time.Duration

	// Repair configures the background scrubber and rebuilder; zero
	// fields take repair.DefaultConfig values.
	Repair repair.Config

	// DisableRepair turns the background repair manager off entirely
	// (tests that inject failures and expect them to persist).
	DisableRepair bool

	// TraceSample traces one request in N (<= 0 takes the default;
	// 1 traces everything). Traces slower than traceSlow are kept in a
	// dedicated ring regardless of sampling, so the tail stays visible.
	TraceSample int

	// RetryAfter is the backoff hint emitted in the Retry-After header
	// with every 429/503 response. 0 takes the default (1s); tests use
	// small values so retry loops stay fast.
	RetryAfter time.Duration

	// FaultRules arms the fault injector at startup (one rule per
	// string, faults.ParseRule grammar). FaultSeed seeds the injector's
	// probabilistic triggers; rules can also be armed at runtime via
	// POST /v1/faults. Leave Service.Faults nil to let the gateway
	// build the injector.
	FaultRules []string
	FaultSeed  uint64

	// Backend selects the mechanical backend: "direct" (the zero-cost
	// default) or "twin" (every media touch routed through the
	// calibrated library simulation). Ignored when Service.Backend is
	// already set by the caller.
	Backend string
	// BackendPolicy is the twin's scheduling policy: silica|sp|ns.
	BackendPolicy string
	// TwinSpeedup maps virtual seconds to wall seconds (the twin's
	// clock runs this many times faster than real time). 0 takes the
	// backend default (200).
	TwinSpeedup float64
}

// traceSlow is the duration past which a trace is kept in the slow
// ring whatever the sampling.
const traceSlow = 500 * time.Millisecond

// DefaultConfig returns a small but genuinely concurrent gateway over
// the tiny-geometry service.
func DefaultConfig() Config {
	return Config{
		Service:              service.DefaultConfig(),
		WriteWorkers:         4,
		ReadWorkers:          4,
		WriteQueue:           64,
		ReadQueue:            64,
		StagingHighWatermark: 0.95,
		FlushBytes:           0, // one platter
		FlushAge:             2 * time.Second,
		FlushInterval:        50 * time.Millisecond,
		Repair:               repair.DefaultConfig(),
		TraceSample:          8,
		RetryAfter:           time.Second,
	}
}

type opKind int

const (
	opPut opKind = iota
	opGet
	opDelete
)

func (k opKind) class() string {
	switch k {
	case opGet:
		return "get"
	case opDelete:
		return "delete"
	default:
		return "put"
	}
}

type request struct {
	op            opKind
	account, name string
	data          []byte // a Put's payload; a Get's dst (see GetInto)
	done          chan response
	// ctx carries the caller's trace (if sampled) into the worker;
	// queueSpan times the wait between admission and pickup.
	ctx       context.Context
	queueSpan obs.SpanEnd
	// trace is the trace submit started for a queued request, if any.
	// The worker finishes it after its last span: a submitter that
	// abandoned the request must not hand it back to the tracer's pool
	// while the worker still writes to it.
	trace *obs.Trace
	// admitted stamps the moment the request entered its class queue,
	// feeding the queue-wait histogram at worker pickup.
	admitted time.Time
	// canceledOnce dedupes cancellation accounting: the submitter (on
	// abandon) and the worker (on pickup skip) both observe the same
	// canceled request, but it must count once.
	canceledOnce atomic.Bool
}

type response struct {
	version int
	data    []byte
	err     error
}

// requests recycles request objects with their done channels. A
// request goes back only after its submitter has received from done,
// since the worker's send is its last touch; one abandoned, rejected
// or refused on close is left to the collector.
var requests = sync.Pool{New: func() any { return &request{done: make(chan response, 1)} }}

// Counters is a snapshot of gateway traffic accounting, read off the
// registry's silica_gateway_*_total counters.
type Counters struct {
	Accepted  int64 // requests admitted to a queue
	Rejected  int64 // admission-control rejections (ErrOverloaded)
	Completed int64 // requests a worker answered (including with errors or canceled)
	Canceled  int64 // requests abandoned by their caller's context
	Flushes   int64 // flush passes run (scheduled or explicit)
}

// Gateway is the concurrent front end. Create with New, stop with
// Close.
type Gateway struct {
	cfg Config
	svc *service.Service

	writeq chan *request
	readq  chan *request

	// admitMu guards the closed transition: Close sets closed and
	// then closes the queues; submitters hold the read side so they
	// never send on a closed channel.
	admitMu sync.RWMutex
	closed  bool

	// flushGate serializes explicit flushes with shutdown: FlushCtx
	// holds the read side for the duration of its drain, Close takes
	// the write side for the final drain and then sets drained, after
	// which explicit flushes return ErrClosed.
	flushGate sync.RWMutex
	drained   bool

	flushKick chan struct{}
	stop      chan struct{}
	workerWG  sync.WaitGroup
	schedWG   sync.WaitGroup

	repair *repair.Manager // nil when DisableRepair

	reg    *obs.Registry
	tracer *obs.Tracer
	gm     gatewayMetrics
}

// New builds and starts a gateway: workers and the flush scheduler
// run immediately.
func New(cfg Config) (*Gateway, error) {
	if cfg.WriteWorkers < 1 || cfg.ReadWorkers < 1 {
		return nil, fmt.Errorf("gateway: need at least one worker per class (%d write, %d read)",
			cfg.WriteWorkers, cfg.ReadWorkers)
	}
	if cfg.WriteQueue < 1 || cfg.ReadQueue < 1 {
		return nil, fmt.Errorf("gateway: need positive queue depths (%d write, %d read)",
			cfg.WriteQueue, cfg.ReadQueue)
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = DefaultConfig().FlushInterval
	}
	start := time.Now()
	if cfg.Service.ArrivalClock == nil {
		cfg.Service.ArrivalClock = func() float64 { return time.Since(start).Seconds() }
	}
	// One registry, private to this gateway, spans the whole stack: the
	// service (and through it the codec engine), the repair manager, and
	// the gateway itself all register into it, so one /metrics scrape
	// covers every subsystem.
	reg := obs.NewRegistry()
	cfg.Service.Metrics = reg
	cfg.Repair.Metrics = reg
	if cfg.TraceSample < 1 {
		cfg.TraceSample = DefaultConfig().TraceSample
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultConfig().RetryAfter
	}
	if cfg.Service.Faults == nil {
		cfg.Service.Faults = faults.New(cfg.FaultSeed)
	}
	cfg.Service.Faults.MapError("overloaded", ErrOverloaded)
	for _, rule := range cfg.FaultRules {
		if err := cfg.Service.Faults.ArmString(rule); err != nil {
			return nil, fmt.Errorf("gateway: bad fault rule %q: %w", rule, err)
		}
	}
	if cfg.Service.Backend == nil {
		switch cfg.Backend {
		case "", "direct":
			// service.New defaults to backend.Direct.
			backend.RegisterInfo(reg, "direct", "", 0)
		case "twin":
			pol, err := backend.ParsePolicy(cfg.BackendPolicy)
			if err != nil {
				return nil, err
			}
			libCfg := backend.DefaultTwinLibrary(cfg.Service.Geom)
			libCfg.Policy = pol
			libCfg.Seed = cfg.Service.Seed ^ 0x7717
			tw, err := backend.NewTwin(backend.TwinConfig{
				Library: libCfg,
				Speedup: cfg.TwinSpeedup,
				Metrics: reg,
			})
			if err != nil {
				return nil, err
			}
			cfg.Service.Backend = tw
		default:
			return nil, fmt.Errorf("gateway: unknown backend %q (want direct|twin)", cfg.Backend)
		}
	}
	svc, err := service.New(cfg.Service)
	if err != nil {
		return nil, err
	}
	if cfg.FlushBytes <= 0 {
		cfg.FlushBytes = cfg.Service.Geom.PlatterUserBytes()
	}
	g := &Gateway{
		cfg:       cfg,
		svc:       svc,
		writeq:    make(chan *request, cfg.WriteQueue),
		readq:     make(chan *request, cfg.ReadQueue),
		flushKick: make(chan struct{}, 1),
		stop:      make(chan struct{}),
		reg:       reg,
		tracer:    obs.NewTracer(cfg.TraceSample, traceSlow),
	}
	g.gm = newGatewayMetrics(reg, g)
	for i := 0; i < cfg.WriteWorkers; i++ {
		g.workerWG.Add(1)
		go g.worker(g.writeq)
	}
	for i := 0; i < cfg.ReadWorkers; i++ {
		g.workerWG.Add(1)
		go g.worker(g.readq)
	}
	g.schedWG.Add(1)
	go g.flushLoop()
	if !cfg.DisableRepair {
		// Background scrub/rebuild yields to foreground traffic: it
		// only takes a work slice while both queues sit under half
		// their watermark (§5: repair must not degrade serving).
		gate := func() bool {
			return len(g.writeq) <= cap(g.writeq)/2 && len(g.readq) <= cap(g.readq)/2
		}
		g.repair = repair.NewManager(svc, svc.Health(), gate, cfg.Repair)
		g.repair.Start()
	}
	return g, nil
}

// Service exposes the underlying storage service (stats, failure
// injection in tests).
func (g *Gateway) Service() *service.Service { return g.svc }

// Repair exposes the background repair manager (nil when disabled).
func (g *Gateway) Repair() *repair.Manager { return g.repair }

// Faults exposes the fault injector (armed via Config.FaultRules, the
// in-process API in tests, or POST /v1/faults).
func (g *Gateway) Faults() *faults.Injector { return g.svc.Faults() }

// HealthPlatters snapshots the platter health registry, each platter
// placed by the service's set index.
func (g *Gateway) HealthPlatters() repair.Snapshot {
	return g.svc.HealthSnapshot()
}

// RequestRepair marks a platter failed and queues it for rebuild (the
// operator "repair now" path). Errors when repair is disabled or the
// platter cannot be repaired.
func (g *Gateway) RequestRepair(id media.PlatterID) error {
	if g.repair == nil {
		return fmt.Errorf("gateway: repair manager disabled")
	}
	return g.repair.RequestRebuild(id)
}

// Degraded reports whether the service is serving at reduced
// redundancy: some platter-set has an unavailable member, or a rebuild
// is in flight.
func (g *Gateway) Degraded() bool {
	if g.svc.DegradedSets() > 0 {
		return true
	}
	return g.repair != nil && g.repair.RebuildsActive() > 0
}

// submit runs one request through admission control and its class
// queue, blocking the caller until a worker finishes it — the
// closed-loop behaviour archival front ends present to clients. When
// the caller's ctx carries no trace, the gateway makes the sampling
// decision here and owns the resulting trace end to end: submit
// finishes it if the request never queues, the worker otherwise.
func (g *Gateway) submit(ctx context.Context, op opKind, account, name string, data []byte) response {
	req := requests.Get().(*request)
	req.op, req.account, req.name, req.data, req.ctx = op, account, name, data, ctx
	cm := &g.gm.cls[req.op]
	if req.ctx == nil {
		req.ctx = context.Background()
	}
	var owned *obs.Trace
	if obs.FromContext(req.ctx) == nil {
		req.ctx, owned = g.tracer.Start(req.ctx, req.op.class())
	}
	if err := req.ctx.Err(); err != nil {
		// Dead on arrival: never admit work whose caller already left.
		g.countCanceled(req)
		g.tracer.Finish(owned)
		return response{err: fmt.Errorf("gateway: canceled before admission: %w", err)}
	}
	q := g.readq
	if req.op != opGet {
		q = g.writeq
		// The staging high watermark guards capacity that only Puts
		// consume; Deletes share the write queue but must stay
		// admissible under a full tier (freeing space is how the
		// operator gets out of that state).
		if req.op == opPut {
			if err := g.admitWrite(); err != nil {
				cm.rejected.Inc()
				g.tracer.Finish(owned)
				return response{err: err}
			}
		}
	}
	req.queueSpan = obs.StartSpan(req.ctx, "queue")
	req.admitted = time.Now()
	req.trace = owned

	g.admitMu.RLock()
	if g.closed {
		g.admitMu.RUnlock()
		req.queueSpan.End()
		g.tracer.Finish(owned)
		return response{err: ErrClosed}
	}
	select {
	case q <- req:
		g.admitMu.RUnlock()
		cm.admitted.Inc()
	default:
		g.admitMu.RUnlock()
		req.queueSpan.End()
		cm.rejected.Inc()
		g.tracer.Finish(owned)
		if req.op != opGet {
			g.kickFlush() // drain staging so capacity comes back
		}
		return response{err: fmt.Errorf("%w: %s queue full", ErrOverloaded, req.op.class())}
	}
	select {
	case resp := <-req.done:
		*req = request{done: req.done} // the pool pins no ctx or payload
		requests.Put(req)
		return resp
	case <-req.ctx.Done():
		// The caller abandoned a queued (or in-flight) request: answer
		// immediately with its ctx error. The worker still owns the
		// request object and its trace, so it never returns to the
		// pool — done is buffered so its eventual send never blocks,
		// and the req.ctx checks at pickup and inside the service stop
		// the work itself from running.
		g.countCanceled(req)
		return response{err: fmt.Errorf("gateway: request abandoned: %w", req.ctx.Err())}
	}
}

// countCanceled records one request's cancellation exactly once, no
// matter how many vantage points (submitter, worker) observe it.
func (g *Gateway) countCanceled(req *request) {
	if req.canceledOnce.CompareAndSwap(false, true) {
		g.gm.cls[req.op].canceled.Inc()
	}
}

// admitWrite applies the staging high watermark before a write enters
// the queue: past it, more queued Puts would only fail at the tier, so
// reject early and kick the flusher.
func (g *Gateway) admitWrite() error {
	hw := g.cfg.StagingHighWatermark
	if hw <= 0 {
		return nil
	}
	u := g.svc.StagingUsage()
	if u.Capacity > 0 && u.Fraction() >= hw {
		g.kickFlush()
		return fmt.Errorf("%w: staging at %.0f%% of capacity", ErrOverloaded, 100*u.Fraction())
	}
	return nil
}

// worker drains one class queue against the (concurrency-safe)
// service. Every request it takes off the queue counts as completed,
// so Accepted − Completed is the number still queued or running.
func (g *Gateway) worker(q chan *request) {
	defer g.workerWG.Done()
	for req := range q {
		cm := &g.gm.cls[req.op]
		req.queueSpan.End()
		if !req.admitted.IsZero() {
			cm.queueWait.Observe(time.Since(req.admitted).Seconds())
		}
		if err := req.ctx.Err(); err != nil {
			// The caller gave up while the request sat queued: skip it
			// entirely — it must never reach the service layer.
			g.countCanceled(req)
			cm.completed.Inc()
			g.tracer.Finish(req.trace)
			req.done <- response{err: fmt.Errorf("gateway: canceled while queued: %w", err)}
			continue
		}
		t0 := time.Now()
		var resp response
		switch req.op {
		case opPut:
			resp.version, resp.err = g.svc.PutCtx(req.ctx, req.account, req.name, req.data)
			if errors.Is(resp.err, staging.ErrCapacity) {
				// Lost the capacity race after admission; surface the
				// same backpressure signal and drain.
				resp.err = fmt.Errorf("%w: %v", ErrOverloaded, resp.err)
				g.kickFlush()
			}
		case opGet:
			resp.data, resp.err = g.svc.GetInto(req.ctx, req.account, req.name, req.data)
		case opDelete:
			resp.err = g.svc.DeleteCtx(req.ctx, req.account, req.name)
		}
		cm.seconds.Observe(time.Since(t0).Seconds())
		cm.completed.Inc()
		g.tracer.Finish(req.trace)
		req.done <- resp
	}
}

// Put stores data under account/name. It blocks until staged (or
// rejected) and returns the version written.
func (g *Gateway) Put(account, name string, data []byte) (int, error) {
	return g.PutCtx(context.Background(), account, name, data)
}

// PutCtx is Put carrying ctx (and any trace in it) through the queue
// into the service.
func (g *Gateway) PutCtx(ctx context.Context, account, name string, data []byte) (int, error) {
	resp := g.submit(ctx, opPut, account, name, data)
	return resp.version, resp.err
}

// Get reads the latest version of account/name.
func (g *Gateway) Get(account, name string) ([]byte, error) {
	return g.GetInto(context.Background(), account, name, nil)
}

// GetInto is Get carrying ctx (and any trace in it) through the queue
// into the service, decoding into dst's backing array as
// service.GetInto does. A Get abandoned on ctx returns at once while
// its worker may still be writing dst, so on error the caller must not
// reuse dst.
func (g *Gateway) GetInto(ctx context.Context, account, name string, dst []byte) ([]byte, error) {
	resp := g.submit(ctx, opGet, account, name, dst)
	return resp.data, resp.err
}

// Delete removes account/name (crypto-shredding its keys).
func (g *Gateway) Delete(account, name string) error {
	return g.DeleteCtx(context.Background(), account, name)
}

// DeleteCtx is Delete carrying ctx (and any trace in it) through the
// queue into the service.
func (g *Gateway) DeleteCtx(ctx context.Context, account, name string) error {
	return g.submit(ctx, opDelete, account, name, nil).err
}

// Flush forces a full drain of the staging tier, bypassing the
// watermark scheduler (used by tests and the admin API).
func (g *Gateway) Flush() error {
	// Scheduled and explicit flushes with no caller trace get their own
	// sampling decision, so pipeline spans (encode, burn, verify,
	// publish) stay observable without a traced client.
	return g.FlushCtx(context.Background())
}

// FlushCtx is Flush carrying ctx (and any trace in it) into the
// service's flush pipeline. Explicit flushes hold the read side of
// flushGate so they cannot race Close's final drain; after that drain
// completes, FlushCtx returns ErrClosed.
func (g *Gateway) FlushCtx(ctx context.Context) error {
	g.flushGate.RLock()
	defer g.flushGate.RUnlock()
	if g.drained {
		return ErrClosed
	}
	return g.flushLocked(ctx)
}

// flushLocked runs one flush pass. Callers hold flushGate (read side
// for explicit flushes, write side for Close's final drain).
func (g *Gateway) flushLocked(ctx context.Context) error {
	var owned *obs.Trace
	if obs.FromContext(ctx) == nil {
		ctx, owned = g.tracer.Start(ctx, "flush")
	}
	t0 := time.Now()
	err := g.svc.FlushCtx(ctx)
	seconds := time.Since(t0).Seconds()
	g.tracer.Finish(owned)
	g.gm.flushSeconds.Observe(seconds)
	g.gm.flushes.Inc()
	return err
}

// Close stops admission, drains both queues through the workers,
// stops the flush scheduler, and flushes staging so every admitted
// write is durable on return.
func (g *Gateway) Close() error {
	g.admitMu.Lock()
	if g.closed {
		g.admitMu.Unlock()
		return ErrClosed
	}
	g.closed = true
	close(g.writeq)
	close(g.readq)
	g.admitMu.Unlock()

	if g.repair != nil {
		g.repair.Close() // no scrubs or rebuilds during the final drain
	}
	g.workerWG.Wait() // queues drained, in-flight requests answered
	close(g.stop)
	g.schedWG.Wait()
	// Final drain: staged data becomes durable. The write side of
	// flushGate waits for any explicit Flush still in flight, and
	// drained flips before release so later explicit flushes get
	// ErrClosed instead of racing a closed service.
	g.flushGate.Lock()
	defer g.flushGate.Unlock()
	err := g.flushLocked(context.Background())
	g.drained = true
	// With persistence on, a graceful shutdown ends in a clean snapshot
	// (skipped automatically if a crash point froze the log).
	if cerr := g.svc.ClosePersist(); cerr != nil && err == nil {
		err = cerr
	}
	// The backend goes down last: the final flush above still bills its
	// burns through it.
	if berr := g.svc.Backend().Close(); berr != nil && err == nil {
		err = berr
	}
	return err
}
