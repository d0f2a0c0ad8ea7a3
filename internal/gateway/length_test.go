package gateway_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"silica/internal/cluster"
	"silica/internal/gateway"
)

// TestObjectRepliesDeclareLength: a GET reply carries its object's
// length whatever the size, so one past net/http's 2 KiB response buffer
// is not sent chunked, and HEAD reports the same length; on the library
// daemon and on the router, which serve the object routes through the
// same MountObjects. The 100 B object's length was always declared; the
// 5000 B object's GET went out chunked, and its HEAD had no length.
func TestObjectRepliesDeclareLength(t *testing.T) {
	g, err := gateway.New(quietConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	c, err := cluster.NewLocal(cluster.LocalConfig{Libraries: 3, Gateway: quietConfig()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for _, daemon := range []struct {
		name string
		h    http.Handler
	}{{"library", g.Handler()}, {"router", c.Handler()}} {
		t.Run(daemon.name, func(t *testing.T) {
			srv := httptest.NewServer(daemon.h)
			t.Cleanup(srv.Close)
			tr := &http.Transport{DisableCompression: true}
			t.Cleanup(tr.CloseIdleConnections)
			hc := &http.Client{Transport: tr}
			for _, size := range []int{100, 5000} {
				data := bytes.Repeat([]byte{byte(size)}, size)
				name := "len" + strconv.Itoa(size)
				if _, err := gateway.NewClient(srv.URL).Put("acct", name, data); err != nil {
					t.Fatal(err)
				}
				for _, method := range []string{http.MethodGet, http.MethodHead} {
					req, err := http.NewRequest(method, srv.URL+"/v1/objects/acct/"+name, nil)
					if err != nil {
						t.Fatal(err)
					}
					resp, err := hc.Do(req)
					if err != nil {
						t.Fatal(err)
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Fatalf("%s %d B: status %d, %v", method, size, resp.StatusCode, err)
					}
					if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(size) || resp.ContentLength != int64(size) {
						t.Errorf("%s %d B: Content-Length %q (parsed %d), want %d", method, size, got, resp.ContentLength, size)
					}
					if len(resp.TransferEncoding) != 0 {
						t.Errorf("%s %d B: Transfer-Encoding %v, want none", method, size, resp.TransferEncoding)
					}
					want := data
					if method == http.MethodHead {
						want = nil
					}
					if !bytes.Equal(body, want) {
						t.Errorf("%s %d B: %d body bytes, want %d", method, size, len(body), len(want))
					}
				}
			}
		})
	}
}
