package sim

import (
	"hash/fnv"
	"math"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded through splitmix64). Every stochastic component in
// the simulator owns its own RNG forked by name from a root seed, so
// adding a component never perturbs the random streams of the others.
type RNG struct {
	seed uint64
	s    [4]uint64
}

func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{seed: seed}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	return r
}

// Fork derives an independent generator from this one's seed material and
// a name. Forking is stable: the same parent seed and name always yield
// the same stream, regardless of how much the parent has been consumed.
func (r *RNG) Fork(name string) *RNG {
	h := fnv.New64a()
	h.Write([]byte(name))
	return NewRNG(r.seed ^ h.Sum64())
}

// ForkAt derives an independent generator from this one's seed material
// and a pair of indices. It is the hot-path sibling of Fork: the codec
// engine forks one stream per (track, sector) so parallel workers never
// share generator state, and formatting a name per sector would cost
// more than the decode it seeds. Like Fork it depends only on the seed,
// never on consumed state, so the derived stream is identical however
// the work is scheduled.
func (r *RNG) ForkAt(a, b uint64) *RNG {
	x := r.seed ^ (a+1)*0xa24baed4963ee407
	z := splitmix64(&x)
	x = z ^ (b+1)*0x9fb21c651e98df25
	return NewRNG(splitmix64(&x))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform sample in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Normal returns a sample from N(mean, stddev^2) (Box–Muller).
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormal returns a sample whose logarithm is N(mu, sigma^2).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exponential returns a sample from Exp(rate); mean is 1/rate.
func (r *RNG) Exponential(rate float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Poisson returns a Poisson(lambda) sample. For large lambda it uses the
// normal approximation, which is fine for workload generation.
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		n := int(math.Round(r.Normal(lambda, math.Sqrt(lambda))))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
