package experiments

import (
	"fmt"
	"net/http/httptest"
	"time"

	"silica/internal/gateway"
	"silica/internal/obs"
	"silica/internal/stats"
)

// PolicyLiveConfig shapes the live §7 policy comparison: instead of
// replaying a trace into a bare library, it stands up a full gateway
// per policy — HTTP server, admission control, codec stack, twin
// backend — and drives Zipf-skewed closed-loop clients through it, so
// the policy ordering the paper measures on hardware is reproduced
// end-to-end through the serving stack.
type PolicyLiveConfig struct {
	Clients      int
	OpsPerClient int
	ObjectBytes  int
	ReadFraction float64
	ZipfSkew     float64 // read-popularity skew (see gateway.LoadConfig)
	Speedup      float64 // twin virtual-to-wall clock ratio
	Seed         uint64
	// PlatterTracks shrinks platters so flushes happen often enough for
	// reads to touch burned media within a short run.
	PlatterTracks int
}

// DefaultPolicyLiveConfig finishes in a few seconds per policy.
func DefaultPolicyLiveConfig() PolicyLiveConfig {
	return PolicyLiveConfig{
		Clients:       12,
		OpsPerClient:  20,
		ObjectBytes:   2048,
		ReadFraction:  0.7,
		ZipfSkew:      1.2,
		Speedup:       2500,
		Seed:          1,
		PlatterTracks: 9,
	}
}

// PolicyLiveRow is one policy's end-to-end measurements.
type PolicyLiveRow struct {
	Policy         string
	Gets           int64
	GetP50, GetP99 float64 // server-side request latency, seconds
	MechMean       float64 // mean wall mechanical latency per read, seconds
	// MechVirtP99 is the p99 *virtual* mechanical read latency — the
	// number the scheduling policy actually controls, free of host
	// scheduling noise. The paper's ordering (NS < Silica ≤ SP) is
	// asserted on this column.
	MechVirtP99    float64
	VirtualSeconds float64 // twin clock at end of run
}

// PolicyLiveResult compares the scheduling policies through the live
// HTTP stack.
type PolicyLiveResult struct {
	Cfg  PolicyLiveConfig
	Rows []PolicyLiveRow
}

func (r PolicyLiveResult) String() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Policy,
			fmt.Sprintf("%d", row.Gets),
			stats.FormatDuration(row.GetP50),
			stats.FormatDuration(row.GetP99),
			stats.FormatDuration(row.MechMean),
			stats.FormatDuration(row.MechVirtP99),
			fmt.Sprintf("%.0fs", row.VirtualSeconds)})
	}
	return fmt.Sprintf("Policy comparison, live HTTP stack (twin backend, %gx speedup, Zipf %.1f; paper §7: NS < Silica ≤ SP mechanical read latency)\n",
		r.Cfg.Speedup, r.Cfg.ZipfSkew) +
		table([]string{"policy", "gets", "get p50", "get p99", "mech mean", "mech virt p99", "virtual"}, rows)
}

// PolicyComparisonLive runs the same Zipf-skewed workload against a
// live gateway once per scheduling policy and reports server-side read
// latency. NS (no shuttles — platters teleport) bounds the achievable
// latency from below; SP (shortest-path shuttle routing) pays
// congestion; Silica's policy sits between them.
func PolicyComparisonLive(cfg PolicyLiveConfig) (PolicyLiveResult, error) {
	res := PolicyLiveResult{Cfg: cfg}
	for _, pol := range []string{"ns", "silica", "sp"} {
		row, err := runPolicyLive(pol, cfg)
		if err != nil {
			return res, fmt.Errorf("policy %s: %w", pol, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// runPolicyLive stands up one gateway+HTTP server with the twin
// backend under the named policy, drives the workload, and scrapes the
// latency split from /metrics.
func runPolicyLive(policy string, cfg PolicyLiveConfig) (PolicyLiveRow, error) {
	row := PolicyLiveRow{Policy: policy}
	gcfg := gateway.DefaultConfig()
	gcfg.Service.Seed = cfg.Seed
	gcfg.Service.Geom.TracksPerPlatter = cfg.PlatterTracks
	gcfg.Backend = "twin"
	gcfg.BackendPolicy = policy
	gcfg.TwinSpeedup = cfg.Speedup
	g, err := gateway.New(gcfg)
	if err != nil {
		return row, err
	}
	srv := httptest.NewServer(g.Handler())
	defer func() {
		srv.Close()
		g.Close()
	}()

	client := gateway.NewClient(srv.URL)
	rep := gateway.RunLoad(client, gateway.LoadConfig{
		Clients:      cfg.Clients,
		OpsPerClient: cfg.OpsPerClient,
		ReadFraction: cfg.ReadFraction,
		ObjectBytes:  cfg.ObjectBytes,
		Seed:         cfg.Seed,
		Retry:        &gateway.RetryPolicy{MaxRetries: 8, BaseBackoff: 5 * time.Millisecond},
		ZipfSkew:     cfg.ZipfSkew,
	})
	if rep.Lost > 0 || rep.Corrupted > 0 {
		return row, fmt.Errorf("%d lost, %d corrupted objects", rep.Lost, rep.Corrupted)
	}
	row.Gets = rep.Gets

	samples, err := client.Metrics()
	if err != nil {
		return row, err
	}
	get := map[string]string{"class": "get"}
	row.GetP50, _ = obs.HistQuantile(samples, "silica_gateway_request_seconds", get, 0.50)
	row.GetP99, _ = obs.HistQuantile(samples, "silica_gateway_request_seconds", get, 0.99)
	read := map[string]string{"op": "read"}
	row.MechMean, _ = obs.HistMean(samples, "silica_backend_mech_seconds", read)
	row.MechVirtP99, _ = obs.HistQuantile(samples, "silica_backend_mech_virtual_seconds", read, 0.99)
	if v, ok := obs.FindSample(samples, "silica_backend_virtual_seconds", nil); ok {
		row.VirtualSeconds = v.Value
	}
	return row, nil
}
