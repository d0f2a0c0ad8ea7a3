package gateway

import (
	"bytes"
	"runtime"
	"testing"
)

// TestReadBody: readBody reads a body of its declared length into a
// buffer of exactly that length, or into the caller's buffer when its
// capacity covers it, and refuses a body shorter or longer than
// declared. A 4096-byte body allocates 4096 B and the probe byte; it
// took 4864 B when the buffer was declared length + 1 (Go's size class
// for 4097 B).
func TestReadBody(t *testing.T) {
	body := bytes.Repeat([]byte("silica"), 1000)[:4096]
	for _, c := range []struct {
		name string
		sent int
		ok   bool
	}{{"exact", 4096, true}, {"short", 4095, false}, {"overlong", 4097, false}, {"none", 0, false}} {
		sent := append(bytes.Clone(body), '!')[:c.sent]
		got, err := readBody(nil, bytes.NewReader(sent), int64(len(body)))
		if c.ok != (err == nil) || c.ok && !bytes.Equal(got, body) {
			t.Errorf("%s body (%d of 4096 B): err=%v, byte-exact=%v", c.name, c.sent, err, bytes.Equal(got, body))
		}
	}
	if got, err := readBody(nil, bytes.NewReader(nil), 0); err != nil || got == nil || len(got) != 0 {
		t.Errorf("empty body: %v (nil=%v), %v", got, got == nil, err)
	}
	dst := make([]byte, 0, 2*len(body))
	if got, err := readBody(dst, bytes.NewReader(body), int64(len(body))); err != nil || &got[0] != &dst[:1][0] {
		t.Errorf("a buffer with room was not read into: %v", err)
	}

	const runs = 100
	readers := make([]*bytes.Reader, runs)
	for i := range readers {
		readers[i] = bytes.NewReader(body)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range readers {
		if _, err := readBody(nil, r, int64(len(body))); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRead := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("a 4096-byte body allocates %.0f B", perRead)
	if limit := 4096 + 32.0; perRead > limit {
		t.Errorf("a 4096-byte body allocates %.0f B, want at most %.0f", perRead, limit)
	}
}
