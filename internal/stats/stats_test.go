package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	s := NewSample()
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if s.N() != 5 || s.Mean() != 3 {
		t.Fatalf("N/Mean = %d/%v", s.N(), s.Mean())
	}
	if s.Quantile(0) != 1 || s.Max() != 5 || s.Median() != 3 {
		t.Fatalf("Quantile(0)/Max/Median = %v/%v/%v", s.Quantile(0), s.Max(), s.Median())
	}
}

func TestQuantileInterpolation(t *testing.T) {
	s := NewSample()
	s.Add(0)
	s.Add(10)
	if got := s.Quantile(0.5); got != 5 {
		t.Fatalf("Quantile(0.5) = %v, want 5", got)
	}
	if got := s.Quantile(0.25); got != 2.5 {
		t.Fatalf("Quantile(0.25) = %v, want 2.5", got)
	}
}

func TestQuantileEmptyAndExtremes(t *testing.T) {
	s := NewSample()
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Max() != 0 {
		t.Fatal("empty sample should report zeros")
	}
	s.Add(7)
	if s.Quantile(0) != 7 || s.Quantile(1) != 7 || s.P999() != 7 {
		t.Fatal("single-element quantiles should all be the element")
	}
}

func TestQuantileMatchesSortProperty(t *testing.T) {
	err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := NewSample()
		for _, v := range xs {
			s.Add(v)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		// Quantile endpoints must be min/max, and quantiles must be
		// monotone in q.
		if s.Quantile(0) != sorted[0] || s.Quantile(1) != sorted[len(sorted)-1] {
			return false
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := s.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestLogChoose(t *testing.T) {
	if got := math.Exp(LogChoose(5, 2)); math.Abs(got-10) > 1e-9 {
		t.Fatalf("C(5,2) = %v, want 10", got)
	}
	if got := math.Exp(LogChoose(52, 5)); math.Abs(got-2598960) > 1 {
		t.Fatalf("C(52,5) = %v, want 2598960", got)
	}
	if !math.IsInf(LogChoose(5, 9), -1) || !math.IsInf(LogChoose(5, -1), -1) {
		t.Fatal("out-of-range choose should be -inf")
	}
}

func TestBinomialTailExactSmall(t *testing.T) {
	// X ~ Bin(3, 0.5): P(X > 1) = P(2) + P(3) = 3/8 + 1/8 = 0.5.
	if got := BinomialTail(3, 1, 0.5); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("BinomialTail(3,1,0.5) = %v, want 0.5", got)
	}
	// P(X > 2) for Bin(2, p) is 0.
	if got := BinomialTail(2, 2, 0.3); got != 0 {
		t.Fatalf("BinomialTail(2,2,.3) = %v, want 0", got)
	}
}

func TestBinomialTailEdges(t *testing.T) {
	if BinomialTail(10, 5, 0) != 0 {
		t.Fatal("p=0 should give 0")
	}
	if BinomialTail(10, 5, 1) != 1 {
		t.Fatal("p=1 with r<n should give 1")
	}
}

// TestDurabilityTrackDecode reproduces the §6 claim: with ~8% in-track
// redundancy and sector failure probability 1e-3, the probability of
// failing to decode a track is astronomically small (paper: < 1e-24).
func TestDurabilityTrackDecode(t *testing.T) {
	// 100 information + 8 redundancy sectors, fails when >8 of 108 fail.
	p := BinomialTail(108, 8, 1e-3)
	if p > 1e-14 {
		t.Fatalf("track decode failure probability = %v, want ≤ 1e-14", p)
	}
	if p <= 0 {
		t.Fatalf("probability should be positive, got %v", p)
	}
	// With 10 redundancy sectors it must be even smaller.
	p10 := BinomialTail(110, 10, 1e-3)
	if p10 >= p {
		t.Fatalf("more redundancy should reduce failure: %v >= %v", p10, p)
	}
}

func TestBinomialTailMonotonicity(t *testing.T) {
	err := quick.Check(func(seed uint8) bool {
		n := 20 + int(seed)%80
		p := 0.001 + float64(seed%10)*0.01
		prev := 1.1
		for r := 0; r < n; r++ {
			v := BinomialTail(n, r, p)
			if v > prev+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPeakOverMean(t *testing.T) {
	// Constant series: peak == mean at any window.
	flat := []float64{5, 5, 5, 5, 5, 5}
	for w := 1; w <= 6; w++ {
		if got := PeakOverMean(flat, w); math.Abs(got-1) > 1e-12 {
			t.Fatalf("flat series window %d: %v, want 1", w, got)
		}
	}
	// One spike: ratio shrinks as the window grows.
	spike := make([]float64, 30)
	for i := range spike {
		spike[i] = 1
	}
	spike[10] = 100
	prev := math.Inf(1)
	for _, w := range []int{1, 5, 10, 30} {
		got := PeakOverMean(spike, w)
		if got > prev {
			t.Fatalf("peak/mean should shrink with window: w=%d %v > %v", w, got, prev)
		}
		prev = got
	}
	if PeakOverMean(spike, 0) != 0 || PeakOverMean(spike, 31) != 0 {
		t.Fatal("invalid windows should return 0")
	}
	if PeakOverMean([]float64{0, 0}, 1) != 0 {
		t.Fatal("all-zero series should return 0")
	}
}

func TestHistogramShares(t *testing.T) {
	h := NewHistogram([]float64{10, 100})
	h.Add(5, 5)    // bucket 0
	h.Add(50, 50)  // bucket 1
	h.Add(500, 45) // overflow
	cs := h.CountShare()
	for i, want := range []float64{1.0 / 3, 1.0 / 3, 1.0 / 3} {
		if math.Abs(cs[i]-want) > 1e-12 {
			t.Fatalf("count share[%d] = %v, want %v", i, cs[i], want)
		}
	}
	ss := h.SumShare()
	for i, want := range []float64{0.05, 0.5, 0.45} {
		if math.Abs(ss[i]-want) > 1e-12 {
			t.Fatalf("sum share[%d] = %v, want %v", i, ss[i], want)
		}
	}
	if h.TotalCount() != 3 || h.TotalSum() != 100 {
		t.Fatalf("totals = %d/%v", h.TotalCount(), h.TotalSum())
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("descending bounds did not panic")
		}
	}()
	NewHistogram([]float64{10, 5})
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{512, "512B"},
		{4 * 1024 * 1024, "4MiB"},
		{1.5 * 1024, "1.5KiB"},
		{2 * 1024 * 1024 * 1024 * 1024, "2TiB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Fatalf("FormatBytes(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0s"},
		{0.000002, "2us"},
		{0.0042, "4.2ms"},
		{5, "5.0s"},
		{90, "1.5m"},
		{5400, "1.5h"},
		{-90, "-1.5m"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.in); got != c.want {
			t.Fatalf("FormatDuration(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}
