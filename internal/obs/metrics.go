// Package obs is the observability subsystem: the telemetry layer the
// paper's whole evaluation (§7) leans on — per-class latency
// percentiles, drive/worker utilization (Fig. 6), congestion and
// queueing visibility (Fig. 7), scrub/rebuild progress. It has three
// parts:
//
//   - a low-overhead metrics registry: atomic Counter/Gauge and a
//     sharded, lock-free Histogram with fixed log-spaced buckets,
//     registered by name+labels and snapshotable without stopping
//     writers;
//   - request tracing: a Trace carried through context.Context,
//     recording named spans (queue wait, staging reserve, encrypt,
//     encode, burn, verify, publish; decode tiers on the read path)
//     into a bounded in-memory ring of recent and slow traces;
//   - exposition: Prometheus text rendering (WriteProm) plus a small
//     parser (ParseProm) so tools and tests can read it back.
//
// The hot-path discipline matches the codec's zero-alloc contract:
// one observation is a few atomic operations, allocates nothing, and
// never takes a lock. obs depends only on the standard library, so
// any layer of the system may import it.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value metric dimension.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing value. The zero value is
// usable, but counters obtained from a Registry are also rendered by
// WriteProm.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the value to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down, stored as atomic
// bits so readers never block writers.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Min lowers the gauge to v when v is smaller (CAS loop); it never
// raises it, so a gauge Set to its ceiling holds a running minimum.
func (g *Gauge) Min(v float64) {
	for {
		old := g.bits.Load()
		if !(v < math.Float64frombits(old)) || g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value reports the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	default:
		return "counter"
	}
}

// child is one labeled instance within a family.
type child struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// family groups every labeled instance of one metric name.
type family struct {
	name, help string
	kind       metricKind
	bounds     []float64 // histogram bucket bounds

	mu       sync.Mutex
	order    []string // label-key registration order
	children map[string]*child
}

// labelKey builds the canonical identity of a label set (sorted by
// key, so registration order does not split instances).
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

func (f *family) child(labels []Label) *child {
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := &child{labels: append([]Label(nil), labels...)}
	switch f.kind {
	case counterKind:
		c.counter = &Counter{}
	case gaugeKind:
		c.gauge = &Gauge{}
	case histogramKind:
		c.hist = newHistogram(f.bounds)
	}
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// Registry holds metric families and scrape hooks. Registration
// (Counter/Gauge/Histogram lookups) takes a lock and should happen at
// construction time; observations on the returned instances are
// lock-free.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	hooks    []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family finds or creates a family, enforcing kind consistency.
func (r *Registry) family(name, help string, kind metricKind, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		bounds:   append([]float64(nil), bounds...),
		children: make(map[string]*child),
	}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// Counter registers (or finds) a counter under name+labels. Repeated
// calls with the same identity return the same instance.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.family(name, help, counterKind, nil).child(labels).counter
}

// Gauge registers (or finds) a gauge under name+labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.family(name, help, gaugeKind, nil).child(labels).gauge
}

// Histogram registers (or finds) a histogram under name+labels with
// fixed ascending bucket bounds (see LogBuckets). Bounds are taken
// from the first registration of the name.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds must be ascending", name))
		}
	}
	return r.family(name, help, histogramKind, bounds).child(labels).hist
}

// OnScrape registers a hook run before every WriteProm, for gauges
// that mirror external state (queue depths, staging occupancy, health
// state counts) rather than being updated on a hot path.
func (r *Registry) OnScrape(hook func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, hook)
	r.mu.Unlock()
}
