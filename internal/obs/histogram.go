package obs

import (
	"math"
	"sync/atomic"
)

// histShards spreads concurrent observers across independent count
// arrays so the hot path never shares a contended cacheline. Power of
// two so the shard pick is a mask.
const histShards = 16

// histShard is one observer stripe. The trailing pad keeps shards on
// separate cachelines so atomic adds in one stripe do not bounce the
// others' lines.
type histShard struct {
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	_       [56]byte
}

// Histogram buckets float64 observations into fixed ascending bounds
// (bucket i holds v <= bounds[i]; the last bucket is +Inf). Observe is
// lock-free and allocation-free: a binary search over the bounds, one
// atomic add, and one CAS for the sum, on a shard picked by hashing
// the value bits. Snapshots merge the shards without stopping writers.
type Histogram struct {
	bounds []float64
	shards [histShards]histShard
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	for i := range h.shards {
		h.shards[i].counts = make([]atomic.Uint64, len(bounds)+1)
	}
	return h
}

// LogBuckets returns n log-spaced bucket bounds starting at min and
// growing by factor: the fixed-bucket scheme every obs histogram uses
// (exact quantiles stay in stats.Sample; obs trades exactness for a
// lock-free hot path).
func LogBuckets(min, factor float64, n int) []float64 {
	if min <= 0 || factor <= 1 || n < 1 {
		panic("obs: LogBuckets needs min > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := min
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets spans 1µs to ~67s at ×2 per bucket: wide enough for
// gateway microsecond latencies and multi-second flushes alike.
func DurationBuckets() []float64 { return LogBuckets(1e-6, 2, 27) }

// MarginBuckets spans LDPC decode margins (0..1) at ×1.5 from 0.01.
func MarginBuckets() []float64 { return LogBuckets(0.01, 1.5, 12) }

// bucketIdx returns the index of the first bound >= v (len(bounds)
// for the overflow bucket). Hand-rolled binary search: no callback,
// inlinable, ~5 compares for 30 bounds.
func bucketIdx(bounds []float64, v float64) int {
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v > bounds[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Observe records one value. Safe for concurrent use; allocates
// nothing.
func (h *Histogram) Observe(v float64) {
	// Shard by the value's own bits (mixed): observations of a noisy
	// quantity differ in their mantissa essentially always, so
	// concurrent observers spread across stripes without needing a
	// per-CPU hint.
	hash := math.Float64bits(v) * 0x9e3779b97f4a7c15
	sh := &h.shards[hash>>60&(histShards-1)]
	sh.counts[bucketIdx(h.bounds, v)].Add(1)
	for {
		old := sh.sumBits.Load()
		if sh.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// HistSnapshot is a merged copy of a histogram's state.
type HistSnapshot struct {
	Bounds []float64 // ascending; implicit +Inf overflow bucket
	Counts []uint64  // per-bucket (not cumulative), len(Bounds)+1
	Count  uint64
	Sum    float64
}

// Snapshot merges the shards copy-on-read. Writers are never stopped,
// so the result is a consistent-enough view: each bucket count is
// exact at some instant during the call.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.bounds)+1),
	}
	for i := range h.shards {
		sh := &h.shards[i]
		for b := range sh.counts {
			s.Counts[b] += sh.counts[b].Load()
		}
		s.Sum += math.Float64frombits(sh.sumBits.Load())
	}
	for _, c := range s.Counts {
		s.Count += c
	}
	return s
}
