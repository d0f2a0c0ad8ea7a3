package obs

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("silica_test_total", "a counter", L("class", "put"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("silica_test_total", "a counter", L("class", "put")); again != c {
		t.Fatalf("re-registration returned a different counter instance")
	}
	other := r.Counter("silica_test_total", "a counter", L("class", "get"))
	if other == c {
		t.Fatalf("distinct labels share an instance")
	}
	g := r.Gauge("silica_test_depth", "a gauge")
	g.Set(3)
	g.Set(1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

// TestGaugeMin: Min keeps a running minimum under concurrent lowering,
// never raises the gauge, and a gauge Set to 1 with nothing observed
// (or only +Inf, a read-back with no decoded sector) stays 1.
func TestGaugeMin(t *testing.T) {
	r := NewRegistry()
	idle := r.Gauge("silica_test_min", "a running minimum", L("op", "idle"))
	idle.Set(1)
	idle.Min(math.Inf(1))
	if got := idle.Value(); got != 1 {
		t.Fatalf("untouched minimum = %v, want 1", got)
	}

	g := r.Gauge("silica_test_min", "a running minimum", L("op", "busy"))
	g.Set(1)
	const goroutines, perG = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Every goroutine offers values above and below the
				// eventual minimum, interleaved.
				g.Min(0.5 + float64((w*perG+i)%997)/1000)
				g.Min(float64(w*perG+i+1) * 1e-6)
			}
		}(w)
	}
	wg.Wait()
	if got, want := g.Value(), 1e-6; got != want {
		t.Fatalf("concurrent minimum = %v, want %v", got, want)
	}
	g.Min(0.25)
	if got := g.Value(); got != 1e-6 {
		t.Fatalf("Min raised the gauge to %v", got)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("silica_test_total", "c")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on kind mismatch")
		}
	}()
	r.Gauge("silica_test_total", "g")
}

// TestHistogramBucketsAndQuantile: a histogram counts each observation
// in its bucket, and HistQuantile reads its quantiles back out of the
// /metrics exposition.
func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("silica_test_seconds", "a histogram", LogBuckets(1, 2, 4)) // bounds 1,2,4,8
	r.Histogram("silica_test_idle_seconds", "never observed", LogBuckets(1, 2, 4))
	for _, v := range []float64{0.5, 1, 1.5, 3, 7, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	wantCounts := []uint64{2, 1, 1, 1, 1} // <=1, <=2, <=4, <=8, +Inf
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if math.Abs(s.Sum-113) > 1e-9 {
		t.Fatalf("sum = %v, want 113", s.Sum)
	}
	var buf strings.Builder
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseProm(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	quantile := func(name string, q float64) float64 {
		t.Helper()
		v, ok := HistQuantile(samples, name, nil, q)
		if !ok {
			t.Fatalf("%s has no quantile %v", name, q)
		}
		return v
	}
	if q := quantile("silica_test_seconds", 0); q < 0 || q > 1 {
		t.Fatalf("q0 = %v, want within first bucket", q)
	}
	if q := quantile("silica_test_seconds", 1); q != 8 {
		t.Fatalf("q1 = %v, want clamp to last bound 8", q)
	}
	if q := quantile("silica_test_seconds", 0.5); q <= 0 || q > 4 {
		t.Fatalf("median = %v out of range", q)
	}
	if _, ok := HistQuantile(samples, "silica_test_idle_seconds", nil, 0.99); ok {
		t.Fatal("an empty histogram reports a quantile")
	}
	if _, ok := HistMean(samples, "silica_test_idle_seconds", nil); ok {
		t.Fatal("an empty histogram reports a mean")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewRegistry().Histogram("silica_test_seconds", "a histogram", DurationBuckets())
	const (
		goroutines = 8
		perG       = 5000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(g*perG+i+1) * 1e-6)
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*perG)
	}
	want := float64(goroutines*perG) * float64(goroutines*perG+1) / 2 * 1e-6
	if math.Abs(s.Sum-want)/want > 1e-9 {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
}

func TestWritePromParsesBack(t *testing.T) {
	r := NewRegistry()
	r.Counter("silica_test_requests_total", "requests", L("class", "put")).Add(7)
	r.Gauge("silica_test_queue_depth", "depth", L("class", "put")).Set(3)
	h := r.Histogram("silica_test_latency_seconds", "latency", LogBuckets(0.001, 10, 3))
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(2)
	hooked := false
	r.OnScrape(func() { hooked = true })

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !hooked {
		t.Fatalf("scrape hook did not run")
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE silica_test_requests_total counter",
		"# TYPE silica_test_queue_depth gauge",
		"# TYPE silica_test_latency_seconds histogram",
		`silica_test_requests_total{class="put"} 7`,
		`silica_test_latency_seconds_bucket{le="+Inf"} 3`,
		"silica_test_latency_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	samples, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseProm: %v\n%s", err, text)
	}
	if s, ok := FindSample(samples, "silica_test_requests_total", map[string]string{"class": "put"}); !ok || s.Value != 7 {
		t.Fatalf("parsed counter = %+v ok=%v, want 7", s, ok)
	}
	if s, ok := FindSample(samples, "silica_test_queue_depth", map[string]string{"class": "put"}); !ok || s.Value != 3 {
		t.Fatalf("parsed gauge = %+v ok=%v, want 3", s, ok)
	}
	if s, ok := FindSample(samples, "silica_test_latency_seconds_count", nil); !ok || s.Value != 3 {
		t.Fatalf("parsed histogram count = %+v ok=%v, want 3", s, ok)
	}
	if q, ok := HistQuantile(samples, "silica_test_latency_seconds", nil, 0.5); !ok || q <= 0 {
		t.Fatalf("HistQuantile = %v ok=%v", q, ok)
	}
	if m, ok := HistMean(samples, "silica_test_latency_seconds", nil); !ok || math.Abs(m-2.0505/3) > 1e-9 {
		t.Fatalf("HistMean = %v ok=%v, want %v", m, ok, 2.0505/3)
	}
	if _, ok := HistMean(samples, "silica_test_absent_seconds", nil); ok {
		t.Fatal("HistMean found a histogram that was never registered")
	}
}

func TestTraceSpansThroughContext(t *testing.T) {
	tr := NewTracer(1, time.Nanosecond)
	ctx, trace := tr.Start(context.Background(), "put")
	if trace == nil {
		t.Fatalf("sampleEvery=1 must trace")
	}
	if FromContext(ctx) != trace {
		t.Fatalf("context does not carry the trace")
	}
	end := StartSpan(ctx, "reserve")
	time.Sleep(time.Millisecond)
	end.End()

	// Concurrent spans from parallel workers.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := trace.StartSpan("burn")
			time.Sleep(time.Millisecond)
			e.End()
		}()
	}
	wg.Wait()
	tr.Finish(trace)

	recent := tr.Recent()
	if len(recent) != 1 {
		t.Fatalf("recent ring has %d traces, want 1", len(recent))
	}
	rec := recent[0]
	if rec.Name != "put" || len(rec.Spans) != 5 {
		t.Fatalf("trace = %+v, want put with 5 spans", rec)
	}
	names := map[string]int{}
	for _, sp := range rec.Spans {
		names[sp.Name]++
		if sp.Dur <= 0 {
			t.Fatalf("span %q has non-positive duration", sp.Name)
		}
	}
	if names["reserve"] != 1 || names["burn"] != 4 {
		t.Fatalf("span names = %v", names)
	}
	if slow := tr.Slow(); len(slow) != 1 {
		t.Fatalf("slow ring has %d traces, want 1 (threshold 1ns)", len(slow))
	}
}

func TestTracerSamplingAndNilSafety(t *testing.T) {
	tr := NewTracer(4, 0)
	sampled := 0
	for i := 0; i < 16; i++ {
		ctx, trace := tr.Start(context.Background(), "get")
		if trace != nil {
			sampled++
			tr.Finish(trace)
		}
		// Untraced paths must be no-ops end to end.
		StartSpan(ctx, "noop").End()
	}
	if sampled != 4 {
		t.Fatalf("sampled %d of 16 at 1-in-4", sampled)
	}
	var nilTracer *Tracer
	ctx, trace := nilTracer.Start(context.Background(), "x")
	if trace != nil {
		t.Fatalf("nil tracer sampled")
	}
	nilTracer.Finish(trace)
	if nilTracer.Recent() != nil || nilTracer.Slow() != nil {
		t.Fatalf("nil tracer rings must be empty")
	}
	FromContext(ctx).StartSpan("noop").End()
	FromContext(nil).StartSpan("noop").End()
}

func TestTracerRingBounded(t *testing.T) {
	tr := NewTracer(1, 0)
	for i := 0; i < recentRing*3; i++ {
		_, trace := tr.Start(context.Background(), "op")
		tr.Finish(trace)
	}
	recent := tr.Recent()
	if len(recent) != recentRing {
		t.Fatalf("ring grew to %d, want bounded at %d", len(recent), recentRing)
	}
	// Newest first.
	if recent[0].ID <= recent[1].ID {
		t.Fatalf("ring not newest-first: %d then %d", recent[0].ID, recent[1].ID)
	}
}

// FuzzParseProm feeds ParseProm the bytes silica-load and silicactl
// read from a daemon's /metrics: it must never panic, and must return
// samples or an error, not both. Seeded from a real WriteProm dump.
func FuzzParseProm(f *testing.F) {
	r := NewRegistry()
	r.Counter("silica_test_requests_total", "requests", L("class", "put")).Add(7)
	r.Gauge("silica_test_queue_depth", "a \"quoted\" help\nline", L("class", `p"u\t`), L("lib", "0")).Set(-3.5)
	h := r.Histogram("silica_test_latency_seconds", "latency", LogBuckets(0.001, 10, 3))
	h.Observe(0.0005)
	h.Observe(2)
	var dump strings.Builder
	if err := r.WriteProm(&dump); err != nil {
		f.Fatal(err)
	}
	f.Add(dump.String())
	// A dangling escape, a trailing comma with a NaN value, a stray brace.
	f.Add("m{a=\"x\\\nm{a=\"x\",} NaN\nm} 1")
	f.Fuzz(func(t *testing.T, text string) {
		samples, err := ParseProm(strings.NewReader(text))
		if err != nil && samples != nil {
			t.Fatalf("ParseProm returned %d samples and error %v", len(samples), err)
		}
		for _, s := range samples {
			if s.Labels == nil {
				t.Fatalf("sample %q has a nil label map", s.Name)
			}
		}
	})
}
