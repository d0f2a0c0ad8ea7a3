package sim

import (
	"math"
	"sort"
)

// Dist is a sampleable distribution of non-negative durations or sizes.
type Dist interface {
	Sample(r *RNG) float64
}

// Constant always returns its value.
type Constant float64

// Sample implements Dist.
func (c Constant) Sample(*RNG) float64 { return float64(c) }

// Uniform samples uniformly from [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

// Sample implements Dist.
func (u Uniform) Sample(r *RNG) float64 { return r.Range(u.Lo, u.Hi) }

// TruncatedNormal samples N(Mean, Stddev^2) clamped to [Lo, Hi].
type TruncatedNormal struct {
	Mean, Stddev, Lo, Hi float64
}

// Sample implements Dist.
func (t TruncatedNormal) Sample(r *RNG) float64 {
	v := r.Normal(t.Mean, t.Stddev)
	return math.Min(t.Hi, math.Max(t.Lo, v))
}

// TruncatedLogNormal samples a lognormal clamped to [Lo, Hi]. Mu and
// Sigma parameterize the underlying normal of the log.
type TruncatedLogNormal struct {
	Mu, Sigma, Lo, Hi float64
}

// Sample implements Dist.
func (t TruncatedLogNormal) Sample(r *RNG) float64 {
	v := r.LogNormal(t.Mu, t.Sigma)
	return math.Min(t.Hi, math.Max(t.Lo, v))
}

// LogNormalFromMedian builds a TruncatedLogNormal with the given median
// and an approximate max: sigma is chosen so that ~99.9% of the mass is
// below max, and samples are clamped to [lo, max].
func LogNormalFromMedian(median, lo, max float64) TruncatedLogNormal {
	// P(X <= max) = Phi(ln(max/median)/sigma) = 0.999 => sigma = ln(max/median)/3.09.
	sigma := math.Log(max/median) / 3.09
	if sigma <= 0 {
		sigma = 0.01
	}
	return TruncatedLogNormal{Mu: math.Log(median), Sigma: sigma, Lo: lo, Hi: max}
}

// Empirical samples from a piecewise-linear inverse CDF defined by
// (quantile, value) knots. This is how the digital twin replays measured
// latency distributions from the hardware prototype (paper §7.1).
type Empirical struct {
	qs, vs []float64
}

// NewEmpirical builds an empirical distribution from (quantile, value)
// pairs. Quantiles must start at 0, end at 1, and be strictly increasing;
// values must be non-decreasing. It panics on malformed input because the
// knots are always compiled-in calibration data.
func NewEmpirical(quantiles, values []float64) *Empirical {
	if len(quantiles) != len(values) || len(quantiles) < 2 {
		panic("sim: empirical distribution needs matching quantile/value knots")
	}
	if quantiles[0] != 0 || quantiles[len(quantiles)-1] != 1 {
		panic("sim: empirical quantiles must span [0,1]")
	}
	for i := 1; i < len(quantiles); i++ {
		if quantiles[i] <= quantiles[i-1] || values[i] < values[i-1] {
			panic("sim: empirical knots must be increasing")
		}
	}
	return &Empirical{qs: quantiles, vs: values}
}

// Sample implements Dist by inverse-CDF interpolation.
func (e *Empirical) Sample(r *RNG) float64 {
	return e.Quantile(r.Float64())
}

// Quantile returns the value at quantile q in [0,1].
func (e *Empirical) Quantile(q float64) float64 {
	if q <= 0 {
		return e.vs[0]
	}
	if q >= 1 {
		return e.vs[len(e.vs)-1]
	}
	i := sort.SearchFloat64s(e.qs, q)
	if i == 0 {
		return e.vs[0]
	}
	lo, hi := e.qs[i-1], e.qs[i]
	frac := (q - lo) / (hi - lo)
	return e.vs[i-1] + frac*(e.vs[i]-e.vs[i-1])
}

// Zipf samples ranks in [0, N) with probability proportional to
// 1/(rank+1)^S. S>0; larger S is more skewed. Used to reproduce the
// skewed request placement of §7.5.
type Zipf struct {
	cdf []float64
}

// NewZipf precomputes the CDF over n ranks with exponent s.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("sim: zipf needs n > 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Sample returns a rank in [0, N).
func (z *Zipf) Sample(r *RNG) int {
	u := r.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}
