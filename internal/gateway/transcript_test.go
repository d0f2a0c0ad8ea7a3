package gateway

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// The golden HTTP transcripts pin what a single library's daemon puts
// on the wire — status, Content-Type, Retry-After and body — so the
// handlers behind Gateway.Handler can be restructured freely. The
// table is frozen: a diff to it is a wire change.

// exchange is one request and the response it must draw.
type exchange struct {
	name   string
	method string
	path   string
	body   string
	// ctx selects the request context: "" live, "expired" a deadline
	// already past, "canceled" a context already cancelled. Both are
	// only expressible through a ResponseRecorder — a real client would
	// never get the request onto the wire.
	ctx string
	// length, when set, is the Content-Length the request declares in
	// place of its body's; a larger one makes the body a truncated one.
	length int64
	// want is the rendered response (see renderResponse). A body of
	// "..." pins the status and headers only.
	want string
}

// renderResponse flattens the pinned parts of a recorded response into
// the transcript form: status line, the two headers (absent ones
// omitted), a blank line, the body bytes verbatim.
func renderResponse(rec *httptest.ResponseRecorder, headersOnly bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "HTTP %d\n", rec.Code)
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := rec.Header().Get(h); v != "" {
			fmt.Fprintf(&b, "%s: %s\n", h, v)
		}
	}
	b.WriteString("\n")
	if headersOnly {
		b.WriteString("...")
	} else {
		b.WriteString(rec.Body.String())
	}
	return b.String()
}

// runTranscript replays the exchanges in order against h.
func runTranscript(t *testing.T, h http.Handler, table []exchange) {
	t.Helper()
	for _, ex := range table {
		ctx := context.Background()
		switch ex.ctx {
		case "expired":
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, time.Unix(0, 0))
			t.Cleanup(cancel)
		case "canceled":
			var cancel context.CancelFunc
			ctx, cancel = context.WithCancel(ctx)
			cancel()
		}
		req := httptest.NewRequest(ex.method, ex.path, strings.NewReader(ex.body)).WithContext(ctx)
		if ex.length != 0 {
			req.ContentLength = ex.length
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if got := renderResponse(rec, strings.HasSuffix(ex.want, "\n\n...")); got != ex.want {
			t.Errorf("%s: %s %s\n--- got ---\n%s\n--- want ---\n%s", ex.name, ex.method, ex.path, got, ex.want)
		}
	}
}

var gatewayTranscript = []exchange{
	{name: "put", method: "PUT", path: "/v1/objects/acct/obj", body: "hello glass",
		want: "HTTP 200\nContent-Type: application/json\n\n{\"version\":1}\n"},
	{name: "get staged", method: "GET", path: "/v1/objects/acct/obj",
		want: "HTTP 200\nContent-Type: application/octet-stream\n\nhello glass"},
	{name: "put nested name", method: "PUT", path: "/v1/objects/acct/dir/sub/obj", body: "nested",
		want: "HTTP 200\nContent-Type: application/json\n\n{\"version\":1}\n"},
	{name: "get nested name", method: "GET", path: "/v1/objects/acct/dir/sub/obj",
		want: "HTTP 200\nContent-Type: application/octet-stream\n\nnested"},
	{name: "put second version", method: "PUT", path: "/v1/objects/acct/obj", body: "hello again",
		want: "HTTP 200\nContent-Type: application/json\n\n{\"version\":2}\n"},
	{name: "flush", method: "POST", path: "/v1/flush",
		want: "HTTP 200\nContent-Type: application/json\n\n{\"flushed\":true}\n"},
	{name: "get durable", method: "GET", path: "/v1/objects/acct/obj",
		want: "HTTP 200\nContent-Type: application/octet-stream\n\nhello again"},
	{name: "healthz ok", method: "GET", path: "/v1/healthz",
		want: "HTTP 200\nContent-Type: application/json\n\n{\"status\":\"ok\"}\n"},
	{name: "delete", method: "DELETE", path: "/v1/objects/acct/obj",
		want: "HTTP 200\nContent-Type: application/json\n\n{\"deleted\":true}\n"},
	{name: "get after delete", method: "GET", path: "/v1/objects/acct/obj",
		want: "HTTP 404\nContent-Type: application/json\n\n{\"error\":\"metadata: file not found: acct/obj (all versions deleted)\"}\n"},
	{name: "delete after delete", method: "DELETE", path: "/v1/objects/acct/obj",
		want: "HTTP 404\nContent-Type: application/json\n\n{\"error\":\"metadata: file not found: acct/obj (already deleted)\"}\n"},
	{name: "put empty name", method: "PUT", path: "/v1/objects/acct/", body: "x",
		want: "HTTP 400\nContent-Type: text/plain; charset=utf-8\n\nneed /v1/objects/{account}/{name}\n"},
	{name: "get empty name", method: "GET", path: "/v1/objects/acct/",
		want: "HTTP 400\nContent-Type: text/plain; charset=utf-8\n\nneed /v1/objects/{account}/{name}\n"},
	{name: "delete empty name", method: "DELETE", path: "/v1/objects/acct/",
		want: "HTTP 400\nContent-Type: text/plain; charset=utf-8\n\nneed /v1/objects/{account}/{name}\n"},
	{name: "put truncated body", method: "PUT", path: "/v1/objects/acct/short", body: "abc", length: 10,
		want: "HTTP 400\nContent-Type: text/plain; charset=utf-8\n\nbody: unexpected EOF\n"},
	{name: "put expired ctx", method: "PUT", path: "/v1/objects/acct/late", body: "x", ctx: "expired",
		want: "HTTP 504\nContent-Type: application/json\n\n{\"error\":\"gateway: canceled before admission: context deadline exceeded\"}\n"},
	{name: "get canceled ctx", method: "GET", path: "/v1/objects/acct/obj", ctx: "canceled",
		want: "HTTP 499\nContent-Type: application/json\n\n{\"error\":\"gateway: canceled before admission: context canceled\"}\n"},
	{name: "flush canceled ctx", method: "POST", path: "/v1/flush", ctx: "canceled",
		want: "HTTP 499\nContent-Type: application/json\n\n{\"error\":\"service: flush canceled: context canceled\"}\n"},
	{name: "stats route gone", method: "GET", path: "/v1/stats",
		want: "HTTP 404\nContent-Type: text/plain; charset=utf-8\n\n404 page not found\n"},
	{name: "cost route gone", method: "GET", path: "/v1/cost",
		want: "HTTP 404\nContent-Type: text/plain; charset=utf-8\n\n404 page not found\n"},
	{name: "backend status route gone", method: "GET", path: "/v1/backend",
		want: "HTTP 404\nContent-Type: text/plain; charset=utf-8\n\n404 page not found\n"},
	{name: "backend policy switch gone", method: "POST", path: "/v1/backend", body: `{"policy":"sp"}`,
		want: "HTTP 404\nContent-Type: text/plain; charset=utf-8\n\n404 page not found\n"},
	{name: "repair unknown platter", method: "POST", path: "/v1/repair/99",
		want: "HTTP 404\nContent-Type: application/json\n\n{\"error\":\"repair: unknown platter: 99\"}\n"},
	{name: "repair bad id", method: "POST", path: "/v1/repair/x",
		want: "HTTP 400\nContent-Type: text/plain; charset=utf-8\n\nneed /v1/repair/{platter} with a numeric platter id\n"},
	{name: "metrics", method: "GET", path: "/metrics",
		want: "HTTP 200\nContent-Type: text/plain; version=0.0.4; charset=utf-8\n\n..."},
	{name: "arm unavailable", method: "POST", path: "/v1/faults", body: `{"arm":["op=staging.reserve,mode=error,err=unavailable"]}`,
		want: "HTTP 200\nContent-Type: application/json\n\n{\"total_injected\":0,\"rules\":[{\"rule\":{\"op\":\"staging.reserve\",\"platter\":-1,\"track\":-1,\"sector\":-1,\"mode\":\"error\",\"err\":\"unavailable\"},\"matches\":0,\"fires\":0}]}\n"},
	{name: "put unavailable", method: "PUT", path: "/v1/objects/acct/faulted", body: "x",
		want: "HTTP 503\nContent-Type: application/json\nRetry-After: 0.25\n\n{\"error\":\"faults: injected failure: service: data unavailable at staging.reserve\"}\n"},
	{name: "disarm", method: "DELETE", path: "/v1/faults",
		want: "HTTP 200\nContent-Type: application/json\n\n{\"total_injected\":1,\"rules\":[]}\n"},
}

// overloadTranscript runs against a gateway whose staging tier is
// small enough that the first object carries it past the high
// watermark.
var overloadTranscript = []exchange{
	{name: "put fills staging", method: "PUT", path: "/v1/objects/acct/big", body: strings.Repeat("g", 3000),
		want: "HTTP 200\nContent-Type: application/json\n\n{\"version\":1}\n"},
	{name: "put past watermark", method: "PUT", path: "/v1/objects/acct/more", body: "x",
		want: "HTTP 429\nContent-Type: application/json\nRetry-After: 1.5\n\n{\"error\":\"gateway: overloaded, retry later: staging at 75% of capacity\"}\n"},
	{name: "delete stays admissible", method: "DELETE", path: "/v1/objects/acct/big",
		want: "HTTP 200\nContent-Type: application/json\n\n{\"deleted\":true}\n"},
}

func TestGatewayHTTPTranscript(t *testing.T) {
	cfg := testConfig()
	cfg.RetryAfter = 250 * time.Millisecond
	runTranscript(t, newTestGateway(t, cfg).Handler(), gatewayTranscript)

	cfg = testConfig()
	cfg.RetryAfter = 1500 * time.Millisecond
	cfg.Service.StagingCapacity = 4000
	cfg.StagingHighWatermark = 0.5
	runTranscript(t, newTestGateway(t, cfg).Handler(), overloadTranscript)
}
