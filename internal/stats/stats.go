// Package stats provides the small statistical toolkit the Silica
// reproduction uses everywhere: exact percentiles over recorded samples,
// log-space binomial tail probabilities for the durability analysis of
// §6, rolling-window peak/mean aggregation for the ingress-burstiness
// study of §2, and bucketed histograms for the workload characterization
// of Figure 1.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates float64 observations and answers exact order
// statistics. It is not safe for concurrent use; the simulator is
// single-threaded by design.
type Sample struct {
	xs     []float64
	sum    float64
	sorted bool
}

// NewSample returns an empty sample set.
func NewSample() *Sample { return &Sample{} }

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sum += x
	s.sorted = false
}

// N reports the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean reports the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum / float64(len(s.xs))
}

func (s *Sample) sortIfNeeded() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) using linear
// interpolation between closest ranks, or 0 for an empty sample.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sortIfNeeded()
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// P999 returns the 99.9th percentile, the paper's tail metric.
func (s *Sample) P999() float64 { return s.Quantile(0.999) }

// Max returns the largest observation, or 0 when empty.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sortIfNeeded()
	return s.xs[len(s.xs)-1]
}

// Values returns a copy of the recorded observations (unsorted order is
// not preserved once a quantile has been asked for).
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// LogChoose returns ln(C(n, k)) using log-gamma, valid for huge n.
func LogChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}

// BinomialTail returns P(X > r) for X ~ Binomial(n, p), computed in log
// space so it stays meaningful down to ~1e-300. This is the §6
// durability calculation: the probability that more sectors fail than
// the erasure code can repair.
func BinomialTail(n, r int, p float64) float64 {
	if r >= n {
		return 0
	}
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	lp := math.Log(p)
	lq := math.Log1p(-p)
	// Sum k = r+1 .. n of exp(logC(n,k) + k lp + (n-k) lq), using
	// log-sum-exp anchored at the first (largest, for small p) term.
	max := math.Inf(-1)
	terms := make([]float64, 0, n-r)
	for k := r + 1; k <= n; k++ {
		t := LogChoose(n, k) + float64(k)*lp + float64(n-k)*lq
		terms = append(terms, t)
		if t > max {
			max = t
		}
	}
	if math.IsInf(max, -1) {
		return 0
	}
	sum := 0.0
	for _, t := range terms {
		sum += math.Exp(t - max)
	}
	return math.Exp(max) * sum
}

// PeakOverMean computes the ratio of the peak rolling-window average to
// the overall mean rate. values[i] is the volume observed in fixed slot
// i (e.g. bytes per day); window is the aggregation width in slots.
// This reproduces Figure 2's peak-over-mean ingress analysis.
func PeakOverMean(values []float64, window int) float64 {
	if window <= 0 || window > len(values) {
		return 0
	}
	var total float64
	for _, v := range values {
		total += v
	}
	if total == 0 {
		return 0
	}
	mean := total / float64(len(values))
	var winSum float64
	for i := 0; i < window; i++ {
		winSum += values[i]
	}
	peak := winSum
	for i := window; i < len(values); i++ {
		winSum += values[i] - values[i-window]
		if winSum > peak {
			peak = winSum
		}
	}
	return (peak / float64(window)) / mean
}

// Histogram buckets observations by exponentially sized ranges, as in
// Figure 1(b)'s file-size buckets.
type Histogram struct {
	Bounds []float64 // ascending upper bounds; last bucket is open-ended
	Counts []int64
	Sums   []float64
}

// NewHistogram builds a histogram with len(bounds)+1 buckets: one per
// upper bound plus an overflow bucket.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must be ascending")
		}
	}
	return &Histogram{
		Bounds: append([]float64(nil), bounds...),
		Counts: make([]int64, len(bounds)+1),
		Sums:   make([]float64, len(bounds)+1),
	}
}

// Add records x with weight w (typically w == x for byte-weighted views).
func (h *Histogram) Add(x, w float64) {
	i := sort.SearchFloat64s(h.Bounds, x)
	h.Counts[i]++
	h.Sums[i] += w
}

// TotalCount reports the number of recorded observations.
func (h *Histogram) TotalCount() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// TotalSum reports the summed weights.
func (h *Histogram) TotalSum() float64 {
	var t float64
	for _, s := range h.Sums {
		t += s
	}
	return t
}

// CountShare returns each bucket's fraction of total count.
func (h *Histogram) CountShare() []float64 {
	total := float64(h.TotalCount())
	out := make([]float64, len(h.Counts))
	if total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / total
	}
	return out
}

// SumShare returns each bucket's fraction of total weight.
func (h *Histogram) SumShare() []float64 {
	total := h.TotalSum()
	out := make([]float64, len(h.Sums))
	if total == 0 {
		return out
	}
	for i, s := range h.Sums {
		out[i] = s / total
	}
	return out
}

// FormatBytes renders a byte count with binary units, for report tables.
func FormatBytes(b float64) string {
	units := []string{"B", "KiB", "MiB", "GiB", "TiB", "PiB"}
	i := 0
	for b >= 1024 && i < len(units)-1 {
		b /= 1024
		i++
	}
	if b >= 100 || b == math.Trunc(b) {
		return fmt.Sprintf("%.0f%s", b, units[i])
	}
	return fmt.Sprintf("%.1f%s", b, units[i])
}

// FormatDuration renders seconds as a compact us/ms/s/m/h string for
// tables, spanning gateway latencies (microseconds) to simulated
// retrieval times (hours).
func FormatDuration(sec float64) string {
	switch {
	case sec < 0:
		return "-" + FormatDuration(-sec)
	case sec == 0:
		return "0s"
	case sec < 0.001:
		return fmt.Sprintf("%.0fus", sec*1e6)
	case sec < 1:
		return fmt.Sprintf("%.1fms", sec*1e3)
	case sec < 60:
		return fmt.Sprintf("%.1fs", sec)
	case sec < 3600:
		return fmt.Sprintf("%.1fm", sec/60)
	default:
		return fmt.Sprintf("%.1fh", sec/3600)
	}
}
