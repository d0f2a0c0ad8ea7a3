package gateway

import (
	"net/http"

	"silica/internal/obs"
)

// classMetrics is one request class's pre-registered instruments.
type classMetrics struct {
	admitted  *obs.Counter
	rejected  *obs.Counter
	completed *obs.Counter
	canceled  *obs.Counter
	seconds   *obs.Histogram
	queueWait *obs.Histogram
}

// gatewayMetrics holds the gateway's instruments, indexed by opKind so
// the worker hot path is an array load plus atomics — no map lookups,
// no allocation per request. Every family is registered at
// construction, so a fresh gateway's /metrics already lists them.
type gatewayMetrics struct {
	cls          [3]classMetrics // indexed by opPut/opGet/opDelete
	flushes      *obs.Counter
	flushSeconds *obs.Histogram
}

func newGatewayMetrics(reg *obs.Registry, g *Gateway) gatewayMetrics {
	var gm gatewayMetrics
	for _, k := range []opKind{opPut, opGet, opDelete} {
		c := obs.L("class", k.class())
		gm.cls[k] = classMetrics{
			admitted: reg.Counter("silica_gateway_admitted_total",
				"Requests admitted to a class queue.", c),
			rejected: reg.Counter("silica_gateway_rejected_total",
				"Admission-control rejections (HTTP 429).", c),
			completed: reg.Counter("silica_gateway_completed_total",
				"Requests fully served, including with errors.", c),
			canceled: reg.Counter("silica_gateway_canceled_total",
				"Requests abandoned by their caller's context before or while queued.", c),
			seconds: reg.Histogram("silica_gateway_request_seconds",
				"Queue wait plus service time per request.", obs.DurationBuckets(), c),
			queueWait: reg.Histogram("silica_gateway_queue_wait_seconds",
				"Wait between admission and worker pickup — the queueing share of request latency.",
				obs.DurationBuckets(), c),
		}
	}
	gm.flushes = reg.Counter("silica_gateway_flushes_total",
		"Flush passes run, scheduled or explicit.")
	gm.flushSeconds = reg.Histogram("silica_gateway_flush_seconds",
		"Wall time of one full flush pass.", obs.DurationBuckets())

	writeDepth := reg.Gauge("silica_gateway_queue_depth", "Requests waiting in a class queue.", obs.L("class", "put"))
	readDepth := reg.Gauge("silica_gateway_queue_depth", "Requests waiting in a class queue.", obs.L("class", "get"))
	reg.Gauge("silica_gateway_queue_capacity", "Class queue capacity.", obs.L("class", "put")).
		Set(float64(cap(g.writeq)))
	reg.Gauge("silica_gateway_queue_capacity", "Class queue capacity.", obs.L("class", "get")).
		Set(float64(cap(g.readq)))
	reg.OnScrape(func() {
		writeDepth.Set(float64(len(g.writeq)))
		readDepth.Set(float64(len(g.readq)))
	})
	return gm
}

// Metrics exposes the gateway's registry — the same one wired through
// the service, codec engine, and repair manager, so one scrape covers
// every subsystem.
func (g *Gateway) Metrics() *obs.Registry { return g.reg }

// Counters reads the traffic counters off the instruments /metrics
// exposes, summed over the request classes.
func (g *Gateway) Counters() Counters {
	c := Counters{Flushes: g.gm.flushes.Value()}
	for i := range g.gm.cls {
		cm := &g.gm.cls[i]
		c.Accepted += cm.admitted.Value()
		c.Rejected += cm.rejected.Value()
		c.Completed += cm.completed.Value()
		c.Canceled += cm.canceled.Value()
	}
	return c
}

// TracesPayload is the /v1/traces response body.
type TracesPayload struct {
	Traces []obs.TraceRecord `json:"traces"`
}

// handleTraces serves GET /v1/traces: the ring of recent sampled
// traces, or with ?slow=1 the always-kept slow-trace ring.
func (g *Gateway) handleTraces(w http.ResponseWriter, r *http.Request) {
	recs := g.tracer.Recent()
	if r.URL.Query().Get("slow") == "1" {
		recs = g.tracer.Slow()
	}
	if recs == nil {
		recs = []obs.TraceRecord{}
	}
	WriteJSON(w, http.StatusOK, TracesPayload{Traces: recs})
}
