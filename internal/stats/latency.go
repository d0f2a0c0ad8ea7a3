package stats

// Summary condenses one request class's latency sample for reports:
// the serving-layer counterpart of the paper's time-to-first-byte
// percentiles (§7.2).
type Summary struct {
	N    int
	Mean float64
	P50  float64
	P90  float64
	P99  float64
	P999 float64
	Max  float64
}

// Summarize computes a Summary from a sample.
func Summarize(s *Sample) Summary {
	return Summary{
		N:    s.N(),
		Mean: s.Mean(),
		P50:  s.Quantile(0.5),
		P90:  s.Quantile(0.9),
		P99:  s.Quantile(0.99),
		P999: s.P999(),
		Max:  s.Max(),
	}
}
