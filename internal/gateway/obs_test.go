package gateway

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"silica/internal/obs"
)

// TestTraceEndToEnd drives one traced Put plus the flush that makes it
// durable under a single trace and checks every pipeline span shows up
// with a real duration in /v1/traces: queue wait, staging reserve,
// encrypt, stage, then encode, burn, verify, publish.
func TestTraceEndToEnd(t *testing.T) {
	cfg := testConfig()
	cfg.TraceSample = 1
	cfg.DisableRepair = true
	g := newTestGateway(t, cfg)

	ctx, tr := g.tracer.Start(context.Background(), "e2e")
	if tr == nil {
		t.Fatal("TraceSample=1 should sample every request")
	}
	if _, err := g.PutCtx(ctx, "acct", "traced", randBytes(7, 5000)); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := g.FlushCtx(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	g.tracer.Finish(tr)

	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload TracesPayload
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}

	var rec *obs.TraceRecord
	for i := range payload.Traces {
		if payload.Traces[i].Name == "e2e" {
			rec = &payload.Traces[i]
			break
		}
	}
	if rec == nil {
		t.Fatalf("no e2e trace in /v1/traces (got %d traces)", len(payload.Traces))
	}
	if rec.Duration <= 0 {
		t.Fatalf("trace duration = %v, want > 0", rec.Duration)
	}
	spans := map[string]int64{}
	for _, s := range rec.Spans {
		spans[s.Name] += int64(s.Dur)
	}
	for _, name := range []string{"queue", "reserve", "encrypt", "stage", "encode", "burn", "verify", "publish"} {
		d, ok := spans[name]
		if !ok {
			t.Errorf("trace missing span %q (have %v)", name, rec.Spans)
			continue
		}
		if d <= 0 {
			t.Errorf("span %q duration = %d, want > 0", name, d)
		}
	}
}

// TestMetricsEndpoint drives traffic through a gateway with repair
// enabled and checks /metrics serves valid Prometheus text covering
// every subsystem: gateway, staging, codec, flush phases, repair.
func TestMetricsEndpoint(t *testing.T) {
	g := newTestGateway(t, testConfig())
	data := randBytes(9, 4000)
	if _, err := g.Put("acct", "m1", data); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, err := g.Get("acct", "m1"); err != nil {
		t.Fatalf("get: %v", err)
	}
	if err := g.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	samples, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}

	atLeast := func(name string, labels map[string]string, min float64) {
		t.Helper()
		s, ok := obs.FindSample(samples, name, labels)
		if !ok {
			t.Errorf("missing sample %s%v", name, labels)
			return
		}
		if s.Value < min {
			t.Errorf("%s%v = %v, want >= %v", name, labels, s.Value, min)
		}
	}
	// Gateway.
	atLeast("silica_gateway_admitted_total", map[string]string{"class": "put"}, 1)
	atLeast("silica_gateway_admitted_total", map[string]string{"class": "get"}, 1)
	atLeast("silica_gateway_completed_total", map[string]string{"class": "put"}, 1)
	atLeast("silica_gateway_request_seconds_count", map[string]string{"class": "put"}, 1)
	atLeast("silica_gateway_queue_depth", map[string]string{"class": "put"}, 0)
	atLeast("silica_gateway_queue_capacity", map[string]string{"class": "get"}, 1)
	atLeast("silica_gateway_flushes_total", nil, 1)
	// Staging: the flush drained it, so used is back near zero but the
	// peak watermark remembers the staged object.
	atLeast("silica_staging_used_bytes", nil, 0)
	atLeast("silica_staging_peak_bytes", nil, float64(len(data)))
	// Codec engine: the flush ran encode jobs through the worker pool.
	atLeast("silica_codec_jobs_total", nil, 1)
	atLeast("silica_codec_workers", nil, 1)
	// Codec hot path: the flush's burn encoded sectors and its verify
	// pass decoded them, so both histograms and counters moved; the
	// throughput gauges exist (possibly zero between scrapes).
	atLeast("silica_codec_encode_seconds_count", nil, 1)
	atLeast("silica_codec_decode_seconds_count", nil, 1)
	atLeast("silica_codec_sectors_total", map[string]string{"op": "encode"}, 1)
	atLeast("silica_codec_sectors_total", map[string]string{"op": "decode"}, 1)
	atLeast("silica_codec_sectors_per_second", map[string]string{"op": "encode"}, 0)
	atLeast("silica_codec_sectors_per_second", map[string]string{"op": "decode"}, 0)
	// Flush phases.
	atLeast("silica_flush_phase_seconds_count", map[string]string{"phase": "encode"}, 1)
	atLeast("silica_flush_phase_seconds_count", map[string]string{"phase": "verify"}, 1)
	// Repair: families are registered at construction even before any
	// scrub runs, and every platter starts healthy.
	atLeast("silica_repair_scrubs_total", nil, 0)
	atLeast("silica_repair_rebuilds_total", map[string]string{"outcome": "done"}, 0)
	atLeast("silica_platter_health", map[string]string{"state": "healthy"}, 1)

	// Server-side request quantiles must be derivable from the buckets
	// (this is what silica-load prints next to client-side latency).
	if q, ok := obs.HistQuantile(samples, "silica_gateway_request_seconds",
		map[string]string{"class": "put"}, 0.99); !ok || q < 0 {
		t.Errorf("p99 from request_seconds buckets: q=%v ok=%v", q, ok)
	}
}
