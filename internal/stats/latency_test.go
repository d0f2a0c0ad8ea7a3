package stats

import "testing"

func TestSummaryTinyN(t *testing.T) {
	// N = 0: everything zero.
	if got := Summarize(NewSample()); got != (Summary{}) {
		t.Fatalf("empty summary = %+v, want zero", got)
	}
	// N = 1: every statistic collapses to the single observation.
	s := NewSample()
	s.Add(0.25)
	got := Summarize(s)
	want := Summary{N: 1, Mean: 0.25, P50: 0.25, P90: 0.25, P99: 0.25, P999: 0.25, Max: 0.25}
	if got != want {
		t.Fatalf("N=1 summary = %+v, want %+v", got, want)
	}
	// N = 2: percentiles interpolate between the two, max is the larger.
	s = NewSample()
	s.Add(1)
	s.Add(3)
	got = Summarize(s)
	if got.N != 2 || got.Mean != 2 || got.P50 != 2 || got.Max != 3 {
		t.Fatalf("N=2 summary = %+v", got)
	}
	if got.P99 <= got.P50 || got.P99 > 3 || got.P999 < got.P99 {
		t.Fatalf("N=2 tail percentiles out of order: %+v", got)
	}
	// N = 3: exact ranks at the endpoints.
	s = NewSample()
	for _, v := range []float64{5, 1, 9} {
		s.Add(v)
	}
	got = Summarize(s)
	if got.N != 3 || got.Mean != 5 || got.P50 != 5 || got.Max != 9 {
		t.Fatalf("N=3 summary = %+v", got)
	}
}

func TestQuantileSingleAndEndpoints(t *testing.T) {
	s := NewSample()
	if s.Quantile(0) != 0 || s.Quantile(1) != 0 {
		t.Fatal("empty sample endpoints must be 0")
	}
	s.Add(-2.5)
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got != -2.5 {
			t.Fatalf("Quantile(%v) = %v on single obs, want -2.5", q, got)
		}
	}
	// Out-of-range q clamps to the endpoints.
	s.Add(4)
	if s.Quantile(-0.5) != -2.5 || s.Quantile(1.5) != 4 {
		t.Fatalf("out-of-range q must clamp: q<0 -> %v, q>1 -> %v",
			s.Quantile(-0.5), s.Quantile(1.5))
	}
}
