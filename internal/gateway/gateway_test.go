package gateway

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"silica/internal/metadata"
	"silica/internal/obs"
	"silica/internal/sim"
)

// testConfig returns a gateway config tuned for fast tests: scheduler
// effectively off unless a test enables it.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.FlushAge = 0
	cfg.FlushBytes = 1 << 40 // size watermark never trips
	cfg.FlushInterval = 10 * time.Millisecond
	return cfg
}

func newTestGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

func randBytes(seed uint64, n int) []byte {
	r := sim.NewRNG(seed)
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(r.Uint64())
	}
	return out
}

func TestHTTPRoundTrip(t *testing.T) {
	g := newTestGateway(t, testConfig())
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)

	data := randBytes(1, 5000)
	v, err := c.Put("acct", "file1", data)
	if err != nil || v != 1 {
		t.Fatalf("put: v=%d err=%v", v, err)
	}
	// Staged read through HTTP.
	got, err := c.Get("acct", "file1")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("staged get: err=%v match=%v", err, bytes.Equal(got, data))
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Durable read through HTTP.
	got, err = c.Get("acct", "file1")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("durable get: err=%v match=%v", err, bytes.Equal(got, data))
	}
	samples, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	written, _ := obs.FindSample(samples, "silica_service_platters_total", map[string]string{"event": "written"})
	completed := 0.0
	for _, s := range samples {
		if s.Name == "silica_gateway_completed_total" {
			completed += s.Value
		}
	}
	if written.Value < 1 || completed < 3 {
		t.Fatalf("/metrics: %v platters written, %v requests completed", written.Value, completed)
	}
	if err := c.Delete("acct", "file1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("acct", "file1"); !errors.Is(err, metadata.ErrNotFound) {
		t.Fatalf("get after delete: %v", err)
	}
}

// TestConcurrentClientsE2E is the headline end-to-end test: many
// concurrent HTTP clients put, flush, and get, and every byte must
// survive the round trip through the full codec.
func TestConcurrentClientsE2E(t *testing.T) {
	g := newTestGateway(t, testConfig())
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	const clients = 16
	const objectsPer = 3
	const size = 1500
	var wg sync.WaitGroup
	errs := make(chan error, clients*objectsPer*2)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := NewClient(srv.URL)
			for o := 0; o < objectsPer; o++ {
				name := fmt.Sprintf("c%d-o%d", c, o)
				data := randBytes(uint64(c*100+o), size)
				if _, err := cl.Put("acct", name, data); err != nil {
					errs <- fmt.Errorf("put %s: %w", name, err)
					return
				}
				// Immediate staged read-back.
				got, err := cl.Get("acct", name)
				if err != nil {
					errs <- fmt.Errorf("staged get %s: %w", name, err)
					return
				}
				if !bytes.Equal(got, data) {
					errs <- fmt.Errorf("staged get %s: corrupt", name)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	cl := NewClient(srv.URL)
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < clients; c++ {
		for o := 0; o < objectsPer; o++ {
			name := fmt.Sprintf("c%d-o%d", c, o)
			want := randBytes(uint64(c*100+o), size)
			got, err := cl.Get("acct", name)
			if err != nil {
				t.Fatalf("durable get %s: %v", name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("durable get %s: corrupt", name)
			}
		}
	}
	if g.Service().Stats().DurableReads == 0 {
		t.Fatal("no durable reads recorded")
	}
}

// TestOverloadReturns429 drives deliberate overload: staging capacity
// far below offered load. Some requests must be rejected with 429,
// and every accepted object must still round-trip byte-exactly —
// overload must never corrupt staged state.
func TestOverloadReturns429(t *testing.T) {
	cfg := testConfig()
	cfg.Service.StagingCapacity = 6000 // ~2 objects of 2 KiB ciphertext
	cfg.StagingHighWatermark = 0.9
	g := newTestGateway(t, cfg)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	const clients = 24
	const size = 2000
	var rejected, committedN atomic.Int64
	var mu sync.Mutex
	committed := map[string]uint64{}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := NewClient(srv.URL)
			name := fmt.Sprintf("ovl-%d", c)
			seed := uint64(c + 1000)
			_, err := cl.Put("acct", name, randBytes(seed, size))
			switch {
			case err == nil:
				mu.Lock()
				committed[name] = seed
				mu.Unlock()
				committedN.Add(1)
			case errors.Is(err, ErrOverloaded):
				rejected.Add(1)
			default:
				t.Errorf("put %s: unexpected error %v", name, err)
			}
		}(c)
	}
	wg.Wait()
	if rejected.Load() == 0 {
		t.Fatal("no admission rejections under 8x overload")
	}
	if committedN.Load() == 0 {
		t.Fatal("every request rejected; staging admitted nothing")
	}
	cl := NewClient(srv.URL)
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	for name, seed := range committed {
		got, err := cl.Get("acct", name)
		if err != nil {
			t.Fatalf("committed object %s lost: %v", name, err)
		}
		if !bytes.Equal(got, randBytes(seed, size)) {
			t.Fatalf("committed object %s corrupted", name)
		}
	}
	t.Logf("overload: %d committed, %d rejected", committedN.Load(), rejected.Load())
}

// waitDurable polls until the object's latest version is durable.
func waitDurable(t *testing.T, g *Gateway, account, name string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	key := metadata.FileKey{Account: account, Name: name}
	for time.Now().Before(deadline) {
		v, err := g.Service().Metadata().Get(key)
		if err == nil && v.State == metadata.Durable {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s/%s not durable within %v", account, name, timeout)
}

func TestFlushSchedulerSizeWatermark(t *testing.T) {
	cfg := testConfig()
	cfg.FlushBytes = 1 // any staged byte trips the size watermark
	g := newTestGateway(t, cfg)
	data := randBytes(7, 3000)
	if _, err := g.Put("acct", "auto", data); err != nil {
		t.Fatal(err)
	}
	// No manual Flush: the scheduler must make it durable.
	waitDurable(t, g, "acct", "auto", 30*time.Second)
	got, err := g.Get("acct", "auto")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("durable read after scheduled flush: err=%v", err)
	}
}

func TestFlushSchedulerAgeWatermark(t *testing.T) {
	cfg := testConfig()
	cfg.FlushAge = 50 * time.Millisecond
	g := newTestGateway(t, cfg)
	if _, err := g.Put("acct", "aged", randBytes(8, 1000)); err != nil {
		t.Fatal(err)
	}
	// Far below the size watermark; only the age watermark can trip.
	waitDurable(t, g, "acct", "aged", 30*time.Second)
}

func TestGracefulShutdownDrainsStaging(t *testing.T) {
	cfg := testConfig()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("drain-%d", i)
		data := randBytes(uint64(20+i), 1200)
		want[name] = data
		if _, err := g.Put("acct", name, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if staged := g.Service().StagedBytes(); staged != 0 {
		t.Fatalf("staging not drained on close: %d bytes", staged)
	}
	for name := range want {
		v, err := g.Service().Metadata().Get(metadata.FileKey{Account: "acct", Name: name})
		if err != nil || v.State != metadata.Durable {
			t.Fatalf("%s not durable after close: %v %v", name, v, err)
		}
	}
	// Requests after shutdown fail cleanly.
	if _, err := g.Put("acct", "late", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close: %v", err)
	}
	if _, err := g.Get("acct", "drain-0"); !errors.Is(err, ErrClosed) {
		t.Fatalf("get after close: %v", err)
	}
	if err := g.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
}

// TestLoadGenerator runs the closed-loop generator in-process and
// demands a clean bill: zero lost, zero corrupted.
func TestLoadGenerator(t *testing.T) {
	g := newTestGateway(t, testConfig())
	lc := LoadConfig{
		Clients:        8,
		OpsPerClient:   6,
		ReadFraction:   0.3,
		DeleteFraction: 0.1,
		ObjectBytes:    1024,
		Seed:           42,
		Retry:          &RetryPolicy{MaxRetries: 8, BaseBackoff: 2 * time.Millisecond},
	}
	rep := RunLoad(g, lc)
	if rep.Lost != 0 || rep.Corrupted != 0 || rep.Errors != 0 {
		t.Fatalf("load report: %s", rep)
	}
	if rep.Puts == 0 {
		t.Fatal("no puts completed")
	}
	if rep.Latencies["put"].N == 0 {
		t.Fatal("no put latencies recorded")
	}
	t.Logf("\n%s", rep)
}

// TestLoadGeneratorUnderOverload verifies the acceptance criterion:
// deliberate overload produces a nonzero rejected count and still
// zero lost or corrupted objects.
func TestLoadGeneratorUnderOverload(t *testing.T) {
	cfg := testConfig()
	cfg.Service.StagingCapacity = 5000
	cfg.StagingHighWatermark = 0.9
	cfg.FlushInterval = 5 * time.Millisecond
	g := newTestGateway(t, cfg)
	lc := LoadConfig{
		Clients:      16,
		OpsPerClient: 4,
		ReadFraction: 0.25,
		ObjectBytes:  2000,
		Seed:         7,
		Retry:        &RetryPolicy{MaxRetries: 20, BaseBackoff: 5 * time.Millisecond},
	}
	rep := RunLoad(g, lc)
	if rep.Rejected == 0 {
		t.Fatal("no rejections under deliberate overload")
	}
	if rep.Lost != 0 || rep.Corrupted != 0 {
		t.Fatalf("overload corrupted state: %s", rep)
	}
	t.Logf("\n%s", rep)
}

// TestLoadGeneratorBooksOverloadAsRejections: with no failure armed
// but overload, every op class that runs out of retries is Dropped,
// never an Error. One write worker behind a one-deep queue, each
// admission slowed by 2 ms, rejects puts and deletes alike.
func TestLoadGeneratorBooksOverloadAsRejections(t *testing.T) {
	cfg := testConfig()
	cfg.WriteWorkers = 1
	cfg.WriteQueue = 1
	cfg.DisableRepair = true
	g := newTestGateway(t, cfg)
	if err := g.Faults().ArmString("op=staging.reserve,mode=latency,latency=2ms"); err != nil {
		t.Fatal(err)
	}
	rep := RunLoad(g, LoadConfig{
		Clients:        16,
		OpsPerClient:   20,
		ReadFraction:   0.3,
		DeleteFraction: 0.4,
		ObjectBytes:    512,
		Seed:           3,
		Retry:          &RetryPolicy{MaxRetries: 3, BaseBackoff: time.Millisecond},
	})
	if rep.Errors != 0 || rep.Rejected == 0 || rep.Lost != 0 || rep.Corrupted != 0 {
		t.Fatalf("want 0 errors, some rejections, nothing lost or corrupted:\n%s", rep)
	}
	t.Logf("\n%s", rep)
}

func TestConfigValidation(t *testing.T) {
	cfg := testConfig()
	cfg.WriteWorkers = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero write workers accepted")
	}
	cfg = testConfig()
	cfg.ReadQueue = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero read queue accepted")
	}
}
