package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// MaxSpans bounds one trace's span storage. Spans are a fixed inline
// array so starting and ending them never allocates; past the cap,
// further spans are silently dropped (the trace still records its
// total duration).
const MaxSpans = 64

// Span is one named, timed step of a request: queue wait, staging
// reserve, encrypt, encode, burn, verify, publish, decode tiers.
// Start is the offset from the trace's start.
type Span struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"duration_ns"`
}

// Trace accumulates the spans of one request (or one flush pass). It
// is carried through context.Context (ContextWith/FromContext) and is
// safe for concurrent span recording: parallel flush workers each
// claim a slot atomically and write only to it. All span methods are
// nil-safe, so untraced requests (sampling miss) pay a nil check and
// nothing else.
type Trace struct {
	ID    uint64
	Name  string
	start time.Time

	n      atomic.Int32
	spans  [MaxSpans]Span
	tracer *Tracer
}

// SpanEnd finishes one span; the zero value (from a nil trace or a
// full span table) is a no-op.
type SpanEnd struct {
	t    *Trace
	name string
	idx  int32
	t0   time.Time
}

// StartSpan claims a span slot and starts its clock. Call End on the
// returned handle when the step completes; every span must end before
// the trace is finished.
func (t *Trace) StartSpan(name string) SpanEnd {
	if t == nil {
		return SpanEnd{}
	}
	idx := t.n.Add(1) - 1
	if int(idx) >= MaxSpans {
		return SpanEnd{}
	}
	return SpanEnd{t: t, name: name, idx: idx, t0: time.Now()}
}

// End records the span. The whole Span struct is written at once so a
// concurrent snapshot never observes a half-filled record.
func (s SpanEnd) End() {
	if s.t == nil {
		return
	}
	s.t.spans[s.idx] = Span{
		Name:  s.name,
		Start: s.t0.Sub(s.t.start),
		Dur:   time.Since(s.t0),
	}
}

// StartSpan on a context: shorthand for FromContext(ctx).StartSpan.
func StartSpan(ctx context.Context, name string) SpanEnd {
	return FromContext(ctx).StartSpan(name)
}

type traceCtxKey struct{}

// ContextWith returns ctx carrying t.
func ContextWith(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// TraceRecord is a finished trace as served by /v1/traces.
type TraceRecord struct {
	ID       uint64        `json:"id"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Slow     bool          `json:"slow,omitempty"`
	Spans    []Span        `json:"spans"`
}

// Tracer makes the sampling decision, pools Trace records, and keeps
// two bounded rings of finished traces: the most recent sampled
// traces, and every trace slower than SlowAfter (slow traces are
// always kept, so the tail stays visible even at low sample rates).
type Tracer struct {
	sampleEvery uint64
	slowAfter   time.Duration

	seq  atomic.Uint64
	ids  atomic.Uint64
	pool sync.Pool

	mu     sync.Mutex
	recent []TraceRecord
	rNext  int
	rLen   int
	slow   []TraceRecord
	sNext  int
	sLen   int
}

// Ring capacities: enough history for a dashboard poll, bounded so an
// idle daemon's memory stays flat.
const (
	recentRing = 128
	slowRing   = 64
)

// NewTracer builds a tracer sampling one request in sampleEvery
// (<= 1 traces everything) and ring-keeping traces slower than
// slowAfter (<= 0 disables the slow ring).
func NewTracer(sampleEvery int, slowAfter time.Duration) *Tracer {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &Tracer{
		sampleEvery: uint64(sampleEvery),
		slowAfter:   slowAfter,
		pool:        sync.Pool{New: func() any { return new(Trace) }},
		recent:      make([]TraceRecord, recentRing),
		slow:        make([]TraceRecord, slowRing),
	}
}

// Start makes the sampling decision for one request. On a hit it
// returns a derived context carrying a fresh (pooled) trace; on a miss
// it returns ctx unchanged and a nil trace, and every downstream span
// call no-ops. A nil tracer never samples.
func (tr *Tracer) Start(ctx context.Context, name string) (context.Context, *Trace) {
	if tr == nil {
		return ctx, nil
	}
	if tr.seq.Add(1)%tr.sampleEvery != 0 {
		return ctx, nil
	}
	t := tr.pool.Get().(*Trace)
	t.ID = tr.ids.Add(1)
	t.Name = name
	t.start = time.Now()
	t.n.Store(0)
	t.tracer = tr
	return ContextWith(ctx, t), t
}

// Finish records a trace into the rings and returns it to the pool.
// nil-safe. The trace must not be used after Finish.
func (tr *Tracer) Finish(t *Trace) {
	if tr == nil || t == nil {
		return
	}
	dur := time.Since(t.start)
	n := int(t.n.Load())
	if n > MaxSpans {
		n = MaxSpans
	}
	rec := TraceRecord{
		ID:       t.ID,
		Name:     t.Name,
		Start:    t.start,
		Duration: dur,
		Slow:     tr.slowAfter > 0 && dur >= tr.slowAfter,
		Spans:    make([]Span, 0, n),
	}
	for i := 0; i < n; i++ {
		// A span started but never ended leaves a zero record; drop it
		// rather than report a phantom zero-duration step.
		if t.spans[i].Name != "" {
			rec.Spans = append(rec.Spans, t.spans[i])
		}
		t.spans[i] = Span{}
	}
	tr.mu.Lock()
	tr.recent[tr.rNext] = rec
	tr.rNext = (tr.rNext + 1) % len(tr.recent)
	if tr.rLen < len(tr.recent) {
		tr.rLen++
	}
	if rec.Slow {
		tr.slow[tr.sNext] = rec
		tr.sNext = (tr.sNext + 1) % len(tr.slow)
		if tr.sLen < len(tr.slow) {
			tr.sLen++
		}
	}
	tr.mu.Unlock()
	tr.pool.Put(t)
}

// ring returns buf's live entries newest-first.
func ringCopy(buf []TraceRecord, next, length int) []TraceRecord {
	out := make([]TraceRecord, 0, length)
	for i := 0; i < length; i++ {
		out = append(out, buf[((next-1-i)%len(buf)+len(buf))%len(buf)])
	}
	return out
}

// Recent returns the sampled-trace ring, newest first.
func (tr *Tracer) Recent() []TraceRecord {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return ringCopy(tr.recent, tr.rNext, tr.rLen)
}

// Slow returns the slow-trace ring, newest first.
func (tr *Tracer) Slow() []TraceRecord {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return ringCopy(tr.slow, tr.sNext, tr.sLen)
}
