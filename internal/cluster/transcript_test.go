package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"silica/internal/gateway"
	"silica/internal/service"
)

// The golden HTTP transcripts pin what the router puts on the wire —
// status, Content-Type, Retry-After and body — in the same form as
// internal/gateway's, so the two daemons' object surfaces can be
// compared line for line. The tables are frozen: a diff to one is a
// wire change.

// exchange is one request and the response it must draw.
type exchange struct {
	name   string
	method string
	path   string
	body   string
	// ctx selects the request context: "" live, "expired" a deadline
	// already past, "canceled" a context already cancelled.
	ctx string
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
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if got := renderResponse(rec, strings.HasSuffix(ex.want, "\n\n...")); got != ex.want {
			t.Errorf("%s: %s %s\n--- got ---\n%s\n--- want ---\n%s", ex.name, ex.method, ex.path, got, ex.want)
		}
	}
}

// errLib is a member whose every object call fails with err — after
// the caller's context, which it honours the way a real serving stack
// does.
type errLib struct {
	memLib
	err error
}

func (l *errLib) fail(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return l.err
}

func (l *errLib) PutCtx(ctx context.Context, _, _ string, _ []byte) (int, error) {
	return 0, l.fail(ctx)
}
func (l *errLib) GetInto(ctx context.Context, _, _ string, _ []byte) ([]byte, error) {
	return nil, l.fail(ctx)
}
func (l *errLib) DeleteCtx(ctx context.Context, _, _ string) error { return l.fail(ctx) }

// newErrCluster builds a one-member router whose member always fails.
func newErrCluster(t *testing.T, err error) *Cluster {
	t.Helper()
	c, cerr := New(Config{Seed: 3, RetryAfter: 250 * time.Millisecond})
	if cerr != nil {
		t.Fatal(cerr)
	}
	if aerr := c.AddLibrary("lib-0", &errLib{err: err}); aerr != nil {
		t.Fatal(aerr)
	}
	return c
}

// routerTranscript runs against three healthy in-memory members.
var routerTranscript = []exchange{
	{name: "put", method: "PUT", path: "/v1/objects/acct/obj", body: "hello glass",
		want: "HTTP 200\nContent-Type: application/json\n\n{\"version\":1}\n"},
	{name: "get", method: "GET", path: "/v1/objects/acct/obj",
		want: "HTTP 200\nContent-Type: application/octet-stream\n\nhello glass"},
	{name: "put nested name", method: "PUT", path: "/v1/objects/acct/dir/sub/obj", body: "nested",
		want: "HTTP 200\nContent-Type: application/json\n\n{\"version\":1}\n"},
	{name: "get nested name", method: "GET", path: "/v1/objects/acct/dir/sub/obj",
		want: "HTTP 200\nContent-Type: application/octet-stream\n\nnested"},
	{name: "flush", method: "POST", path: "/v1/flush",
		want: "HTTP 200\nContent-Type: application/json\n\n{\"flushed\":true}\n"},
	{name: "flush canceled ctx", method: "POST", path: "/v1/flush", ctx: "canceled",
		want: "HTTP 200\nContent-Type: application/json\n\n{\"flushed\":true}\n"},
	{name: "healthz ok", method: "GET", path: "/v1/healthz",
		want: "HTTP 200\nContent-Type: application/json\n\n{\"status\":\"ok\"}\n"},
	{name: "delete", method: "DELETE", path: "/v1/objects/acct/obj",
		want: "HTTP 200\nContent-Type: application/json\n\n{\"deleted\":true}\n"},
	{name: "get after delete", method: "GET", path: "/v1/objects/acct/obj",
		want: "HTTP 404\nContent-Type: application/json\n\n{\"error\":\"metadata: file not found: acct/obj\"}\n"},
	{name: "delete after delete", method: "DELETE", path: "/v1/objects/acct/obj",
		want: "HTTP 404\nContent-Type: application/json\n\n{\"error\":\"metadata: file not found: acct/obj\"}\n"},
	{name: "put empty name", method: "PUT", path: "/v1/objects/acct/", body: "x",
		want: "HTTP 400\nContent-Type: text/plain; charset=utf-8\n\nneed /v1/objects/{account}/{name}\n"},
	{name: "get empty name", method: "GET", path: "/v1/objects/acct/",
		want: "HTTP 400\nContent-Type: text/plain; charset=utf-8\n\nneed /v1/objects/{account}/{name}\n"},
	{name: "delete empty name", method: "DELETE", path: "/v1/objects/acct/",
		want: "HTTP 400\nContent-Type: text/plain; charset=utf-8\n\nneed /v1/objects/{account}/{name}\n"},
	{name: "put reserved account", method: "PUT", path: "/v1/objects/~replica~acct/obj", body: "x",
		want: "HTTP 400\nContent-Type: application/json\n\n{\"error\":\"gateway: reserved namespace: account ~replica~acct\"}\n"},
	{name: "rebalance bad workers", method: "POST", path: "/v1/cluster/rebalance?workers=-2",
		want: "HTTP 400\nContent-Type: text/plain; charset=utf-8\n\nworkers: need a non-negative integer\n"},
	{name: "rebalance non-numeric workers", method: "POST", path: "/v1/cluster/rebalance?workers=many",
		want: "HTTP 400\nContent-Type: text/plain; charset=utf-8\n\nworkers: need a non-negative integer\n"},
	{name: "rebalance", method: "POST", path: "/v1/cluster/rebalance?workers=2",
		want: "HTTP 200\nContent-Type: application/json\n\n{\"keys_examined\":1,\"keys_moved\":0,\"bytes_moved\":0,\"lost\":0,\"errors\":0}\n"},
	{name: "rebalance canceled ctx", method: "POST", path: "/v1/cluster/rebalance", ctx: "canceled",
		want: "HTTP 499\nContent-Type: application/json\n\n{\"error\":\"context canceled\"}\n"},
	{name: "drain unknown library", method: "POST", path: "/v1/cluster/drain", body: `{"library":"lib-9"}`,
		want: "HTTP 404\nContent-Type: application/json\n\n{\"error\":\"cluster: unknown library: lib-9\"}\n"},
	{name: "drain bad body", method: "POST", path: "/v1/cluster/drain", body: "{",
		want: "HTTP 400\nContent-Type: text/plain; charset=utf-8\n\nbody: need {\"library\":\"name\"}\n"},
	{name: "drain empty library", method: "POST", path: "/v1/cluster/drain", body: `{}`,
		want: "HTTP 400\nContent-Type: text/plain; charset=utf-8\n\nbody: need {\"library\":\"name\"}\n"},
	{name: "metrics", method: "GET", path: "/metrics",
		want: "HTTP 200\nContent-Type: text/plain; version=0.0.4; charset=utf-8\n\n..."},
}

// After one of the three members is killed the router is degraded,
// and the dead member is known but cannot be drained.
var degradedTranscript = []exchange{
	{name: "healthz degraded", method: "GET", path: "/v1/healthz",
		want: "HTTP 503\nContent-Type: application/json\n\n{\"status\":\"degraded\"}\n"},
	{name: "drain dead library", method: "POST", path: "/v1/cluster/drain", body: `{"library":"lib-1"}`,
		want: "HTTP 409\nContent-Type: application/json\n\n{\"error\":\"cluster: library \\\"lib-1\\\" is dead\"}\n"},
}

// A router with no members at all.
var emptyTranscript = []exchange{
	{name: "put no members", method: "PUT", path: "/v1/objects/acct/obj", body: "x",
		want: "HTTP 503\nContent-Type: application/json\nRetry-After: 0.25\n\n{\"error\":\"cluster: no live libraries\"}\n"},
	{name: "get no members", method: "GET", path: "/v1/objects/acct/obj",
		want: "HTTP 404\nContent-Type: application/json\n\n{\"error\":\"metadata: file not found: acct/obj\"}\n"},
	{name: "flush no members", method: "POST", path: "/v1/flush",
		want: "HTTP 200\nContent-Type: application/json\n\n{\"flushed\":true}\n"},
}

// One member that rejects with the gateway's admission error.
var overloadedTranscript = []exchange{
	{name: "put overloaded member", method: "PUT", path: "/v1/objects/acct/obj", body: "x",
		want: "HTTP 429\nContent-Type: application/json\nRetry-After: 0.25\n\n{\"error\":\"gateway: overloaded, retry later\"}\n"},
}

// One member whose data is unavailable.
var unavailableTranscript = []exchange{
	{name: "put unavailable member", method: "PUT", path: "/v1/objects/acct/obj", body: "x",
		want: "HTTP 503\nContent-Type: application/json\nRetry-After: 0.25\n\n{\"error\":\"service: data unavailable\"}\n"},
	{name: "put expired ctx", method: "PUT", path: "/v1/objects/acct/obj", body: "x", ctx: "expired",
		want: "HTTP 504\nContent-Type: application/json\n\n{\"error\":\"context deadline exceeded\"}\n"},
	{name: "put canceled ctx", method: "PUT", path: "/v1/objects/acct/obj", body: "x", ctx: "canceled",
		want: "HTTP 499\nContent-Type: application/json\n\n{\"error\":\"context canceled\"}\n"},
}

// One member failing with an error no status claims.
var unclassifiedTranscript = []exchange{
	{name: "put unclassified error", method: "PUT", path: "/v1/objects/acct/obj", body: "x",
		want: "HTTP 500\nContent-Type: application/json\n\n{\"error\":\"errlib: disk on fire\"}\n"},
}

func TestRouterHTTPTranscript(t *testing.T) {
	c, _ := newMemCluster(t, 3, 5)
	runTranscript(t, c.Handler(), routerTranscript)
	if err := c.KillLibrary("lib-1"); err != nil {
		t.Fatal(err)
	}
	runTranscript(t, c.Handler(), degradedTranscript)

	empty, err := New(Config{Seed: 3, RetryAfter: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	runTranscript(t, empty.Handler(), emptyTranscript)

	runTranscript(t, newErrCluster(t, gateway.ErrOverloaded).Handler(), overloadedTranscript)
	runTranscript(t, newErrCluster(t, service.ErrUnavailable).Handler(), unavailableTranscript)
	runTranscript(t, newErrCluster(t, errors.New("errlib: disk on fire")).Handler(), unclassifiedTranscript)
}
