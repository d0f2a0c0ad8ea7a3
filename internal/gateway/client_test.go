package gateway

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"silica/internal/metadata"
	"silica/internal/service"
)

// countingServer serves h and counts the TCP connections clients open
// to it.
func countingServer(t *testing.T, h http.Handler) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	srv := httptest.NewUnstartedServer(h)
	conns := new(atomic.Int64)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, conns
}

// ownTransportClient returns a client for url on a transport of its
// own: sharedTransport is process-wide, so a connection another test
// left idle could otherwise serve this one's requests.
func ownTransportClient(t *testing.T, url string) *Client {
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	c := NewClient(url)
	c.HTTP = &http.Client{Timeout: time.Minute, Transport: tr}
	return c
}

// TestClientReusesConnections: every reply the client receives — a
// put's version, a get's bytes, a delete's and a flush's acknowledgment,
// a 404, a plain-text 400, the health probe — is read to EOF, so a
// sequential mix of them runs on one pooled connection. A reply longer
// than drainBound is not read to its end — here it never ends — so the
// call returns at once, the connection is dropped, and the next request
// dials a new one.
func TestClientReusesConnections(t *testing.T) {
	t.Run("mix", func(t *testing.T) {
		g := newTestGateway(t, testConfig())
		srv, conns := countingServer(t, g.Handler())
		c := ownTransportClient(t, srv.URL)

		data := randBytes(7, 1024)
		for i := 0; i < 3; i++ {
			if _, err := c.Put("acct", "obj", data); err != nil {
				t.Fatal(err)
			}
			if got, err := c.Get("acct", "obj"); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("get: err=%v match=%v", err, bytes.Equal(got, data))
			}
			if err := c.Delete("acct", "obj"); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Get("acct", "obj"); !errors.Is(err, metadata.ErrNotFound) {
				t.Fatalf("get after delete: %v", err)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Healthz(); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Put("acct", "", data); err == nil {
				t.Fatal("put with no object name succeeded")
			}
		}
		if n := conns.Load(); n != 1 {
			t.Fatalf("21 sequential requests opened %d connections, want 1", n)
		}
	})

	t.Run("reply over the drain bound", func(t *testing.T) {
		big := bytes.Repeat([]byte("x"), 2*drainBound)
		release := make(chan struct{})
		srv, conns := countingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write(big)
			w.(http.Flusher).Flush()
			select {
			case <-r.Context().Done():
			case <-release:
			}
		}))
		t.Cleanup(func() { close(release) }) // runs before srv.Close
		c := ownTransportClient(t, srv.URL)

		for i := 1; i <= 2; i++ {
			done := make(chan error, 1)
			go func() { done <- c.Flush() }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("a flush whose reply never ends did not return: the drain is unbounded")
			}
			if n := conns.Load(); n != int64(i) {
				t.Fatalf("after %d oversized replies the server saw %d connections, want %d", i, n, i)
			}
		}
	})
}

// TestClientErrorBody: the server's reason reaches the caller whether
// the error body is JSON or http.Error's plain text, and the status
// still maps onto its typed error with the Retry-After hint attached.
func TestClientErrorBody(t *testing.T) {
	g := newTestGateway(t, testConfig())
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	c := ownTransportClient(t, srv.URL)

	_, err := c.Put("acct", "", []byte("x"))
	if want := "gateway: http 400: need /v1/objects/{account}/{name}"; err == nil || err.Error() != want {
		t.Fatalf("put with no name: %v, want %q", err, want)
	}
	_, err = c.Put("acct", "huge", make([]byte, MaxObjectBytes+1))
	if want := "gateway: http 413: body: http: request body too large"; err == nil || err.Error() != want {
		t.Fatalf("oversized put: %v, want %q", err, want)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/objects/acct/{name}", func(w http.ResponseWriter, r *http.Request) {
		switch r.PathValue("name") {
		case "overloaded":
			WriteServiceError(w, ErrOverloaded, 250*time.Millisecond)
		case "missing":
			WriteServiceError(w, metadata.ErrNotFound, 250*time.Millisecond)
		case "unavailable":
			WriteServiceError(w, service.ErrUnavailable, 250*time.Millisecond)
		case "plain-unavailable":
			w.Header().Set("Retry-After", "0.5")
			http.Error(w, "draining for restart", http.StatusServiceUnavailable)
		case "empty":
			w.WriteHeader(http.StatusBadGateway)
		}
	})
	typed := httptest.NewServer(mux)
	defer typed.Close()
	tc := ownTransportClient(t, typed.URL)
	for _, tt := range []struct {
		name   string
		is     error
		reason string
		hint   time.Duration // 0: no hint expected
	}{
		{"overloaded", ErrOverloaded, ErrOverloaded.Error(), 250 * time.Millisecond},
		{"missing", metadata.ErrNotFound, metadata.ErrNotFound.Error(), 0},
		{"unavailable", service.ErrUnavailable, service.ErrUnavailable.Error(), 250 * time.Millisecond},
		{"plain-unavailable", service.ErrUnavailable, "draining for restart", 500 * time.Millisecond},
		{"empty", nil, "502 Bad Gateway", 0},
	} {
		_, err := tc.GetCtx(context.Background(), "acct", tt.name)
		if err == nil || (tt.is != nil && !errors.Is(err, tt.is)) {
			t.Fatalf("%s: %v, want an error wrapping %v", tt.name, err, tt.is)
		}
		if !strings.HasSuffix(err.Error(), ": "+tt.reason) {
			t.Errorf("%s: %q does not end in the server's reason %q", tt.name, err, tt.reason)
		}
		hint, ok := RetryAfterHint(err)
		if ok != (tt.hint != 0) || hint != tt.hint {
			t.Errorf("%s: Retry-After hint %v (present %v), want %v", tt.name, hint, ok, tt.hint)
		}
	}
}
