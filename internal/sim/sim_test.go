package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(3, func() { got = append(got, 3) })
	s.Schedule(1, func() { got = append(got, 1) })
	s.Schedule(2, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3 {
		t.Fatalf("clock = %v, want 3", s.Now())
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.Schedule(1, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of order at %d: got %d", i, v)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var times []Time
	s.Schedule(1, func() {
		times = append(times, s.Now())
		s.Schedule(2, func() { times = append(times, s.Now()) })
	})
	s.Schedule(1.5, func() { times = append(times, s.Now()) })
	s.Run()
	want := []Time{1, 1.5, 3}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(Time(i), func() { count++ })
	}
	s.RunUntil(5)
	if count != 5 {
		t.Fatalf("events fired = %d, want 5", count)
	}
	if s.Now() != 5 {
		t.Fatalf("clock = %v, want 5", s.Now())
	}
	if len(s.events) != 5 {
		t.Fatalf("pending = %d, want 5", len(s.events))
	}
	s.Run()
	if count != 10 {
		t.Fatalf("events fired = %d, want 10", count)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunUntil(42)
	if s.Now() != 42 {
		t.Fatalf("clock = %v, want 42", s.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.Schedule(-1, func() {})
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(7)
	b := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	root := NewRNG(1)
	a := root.Fork("shuttles")
	// Consuming the parent must not change what a fork yields.
	root2 := NewRNG(1)
	for i := 0; i < 100; i++ {
		root2.Uint64()
	}
	a2 := root2.Fork("shuttles")
	for i := 0; i < 100; i++ {
		if a.Uint64() != a2.Uint64() {
			t.Fatal("fork stream depends on parent consumption")
		}
	}
	b := NewRNG(1).Fork("drives")
	c := NewRNG(1).Fork("shuttles")
	if b.Uint64() == c.Uint64() && b.Uint64() == c.Uint64() && b.Uint64() == c.Uint64() {
		t.Fatal("differently named forks produced identical streams")
	}
}

func TestRNGForkAtIndependence(t *testing.T) {
	root := NewRNG(1)
	a := root.ForkAt(3, 7)
	// Consuming the parent must not change what an indexed fork yields.
	root2 := NewRNG(1)
	for i := 0; i < 100; i++ {
		root2.Uint64()
	}
	a2 := root2.ForkAt(3, 7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != a2.Uint64() {
			t.Fatal("indexed fork stream depends on parent consumption")
		}
	}
	// Nearby indices must yield distinct streams (including swapped
	// coordinates, which a naive XOR mix would collide).
	seen := map[uint64][2]uint64{}
	for _, idx := range [][2]uint64{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {3, 7}, {7, 3}} {
		v := NewRNG(1).ForkAt(idx[0], idx[1]).Uint64()
		if prev, dup := seen[v]; dup {
			t.Fatalf("ForkAt%v and ForkAt%v produced identical first draws", prev, idx)
		}
		seen[v] = idx
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	err := quick.Check(func(_ int) bool {
		f := r.Float64()
		return f >= 0 && f < 1
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(11)
	n := 200000
	var sum, ss float64
	for i := 0; i < n; i++ {
		v := r.Normal(5, 2)
		sum += v
		ss += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(ss/float64(n) - mean*mean)
	if math.Abs(mean-5) > 0.05 {
		t.Fatalf("normal mean = %v, want ~5", mean)
	}
	if math.Abs(std-2) > 0.05 {
		t.Fatalf("normal stddev = %v, want ~2", std)
	}
}

func TestRNGExponentialMean(t *testing.T) {
	r := NewRNG(13)
	n := 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(0.5)
	}
	mean := sum / float64(n)
	if math.Abs(mean-2) > 0.05 {
		t.Fatalf("exponential mean = %v, want ~2", mean)
	}
}

func TestRNGPoissonMean(t *testing.T) {
	r := NewRNG(17)
	for _, lambda := range []float64{0.5, 4, 100} {
		n := 50000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(lambda))
		}
		mean := sum / float64(n)
		if math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Fatalf("poisson(%v) mean = %v", lambda, mean)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(19)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestEmpiricalQuantiles(t *testing.T) {
	e := NewEmpirical([]float64{0, 0.5, 1}, []float64{1, 2, 4})
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.5}, {0.5, 2}, {0.75, 3}, {1, 4},
	}
	for _, c := range cases {
		if got := e.Quantile(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestEmpiricalSampleWithinRange(t *testing.T) {
	e := NewEmpirical([]float64{0, 0.86, 1}, []float64{2.932, 3.0, 3.02})
	r := NewRNG(23)
	for i := 0; i < 10000; i++ {
		v := e.Sample(r)
		if v < 2.932 || v > 3.02 {
			t.Fatalf("sample %v out of calibrated range", v)
		}
	}
}

func TestEmpiricalRejectsMalformed(t *testing.T) {
	for _, c := range []struct{ qs, vs []float64 }{
		{[]float64{0, 1}, []float64{1}},
		{[]float64{0.1, 1}, []float64{1, 2}},
		{[]float64{0, 0.9}, []float64{1, 2}},
		{[]float64{0, 0.5, 0.5, 1}, []float64{1, 2, 3, 4}},
		{[]float64{0, 1}, []float64{2, 1}},
	} {
		func() {
			defer func() { recover() }()
			NewEmpirical(c.qs, c.vs)
			t.Fatalf("malformed empirical %v/%v did not panic", c.qs, c.vs)
		}()
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(1000, 1.2)
	r := NewRNG(29)
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		counts[z.Sample(r)]++
	}
	if counts[0] <= counts[1] {
		t.Fatalf("rank 0 (%d) should dominate rank 1 (%d)", counts[0], counts[1])
	}
	// Paper: "the most accessed platter has an order of magnitude more
	// data read than the second most accessed" under their Zipf. Ours
	// should at least be strongly skewed vs the tail.
	if counts[0] < 10*counts[500] {
		t.Fatalf("zipf not skewed: head %d vs mid %d", counts[0], counts[500])
	}
}

func TestTruncatedDistsRespectBounds(t *testing.T) {
	r := NewRNG(31)
	tn := TruncatedNormal{Mean: 1, Stddev: 5, Lo: 0, Hi: 2}
	tl := TruncatedLogNormal{Mu: 0, Sigma: 3, Lo: 0.1, Hi: 9}
	for i := 0; i < 5000; i++ {
		if v := tn.Sample(r); v < 0 || v > 2 {
			t.Fatalf("truncated normal out of bounds: %v", v)
		}
		if v := tl.Sample(r); v < 0.1 || v > 9 {
			t.Fatalf("truncated lognormal out of bounds: %v", v)
		}
	}
}

func TestLogNormalFromMedian(t *testing.T) {
	d := LogNormalFromMedian(0.6, 0, 2)
	r := NewRNG(37)
	s := make([]float64, 0, 50000)
	for i := 0; i < 50000; i++ {
		s = append(s, d.Sample(r))
	}
	var below int
	for _, v := range s {
		if v <= 0.6 {
			below++
		}
		if v > 2 {
			t.Fatalf("sample above max: %v", v)
		}
	}
	frac := float64(below) / float64(len(s))
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("median calibration off: %v of samples below target median", frac)
	}
}

func TestSimulatorDeterminismEndToEnd(t *testing.T) {
	run := func() []float64 {
		s := New()
		r := NewRNG(99)
		var out []float64
		var step func()
		n := 0
		step = func() {
			out = append(out, s.Now())
			n++
			if n < 100 {
				s.Schedule(r.Exponential(1), step)
			}
		}
		s.Schedule(0, step)
		s.Run()
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("identical seeds produced different trajectories")
		}
	}
}
