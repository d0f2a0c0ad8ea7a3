package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"silica/internal/faults"
	"silica/internal/obs"
)

// retryCounter instruments c into a registry of its own and returns
// the silica_client_retries_total counter it counts into.
func retryCounter(c *Client) *obs.Counter {
	reg := obs.NewRegistry()
	c.Instrument(reg)
	return reg.Counter("silica_client_retries_total", "")
}

// slowReserveConfig returns a single-write-worker gateway whose Puts
// stall inside the service on an injected staging.reserve latency, so
// tests can deterministically park requests in the write queue.
func slowReserveConfig(t *testing.T, latency string) *Gateway {
	t.Helper()
	cfg := testConfig()
	cfg.WriteWorkers = 1
	cfg.DisableRepair = true
	g := newTestGateway(t, cfg)
	if err := g.Faults().ArmString("op=staging.reserve,mode=latency,latency=" + latency); err != nil {
		t.Fatal(err)
	}
	return g
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCanceledWhileQueuedNeverExecutes(t *testing.T) {
	g := slowReserveConfig(t, "150ms")

	// Request A occupies the only write worker inside the service.
	aDone := make(chan error, 1)
	go func() {
		_, err := g.Put("acct", "slow", randBytes(1, 1000))
		aDone <- err
	}()
	waitFor(t, "A to be admitted", func() bool { return g.Counters().Accepted >= 1 })

	// Request B queues behind A; cancel it while it waits.
	ctx, cancel := context.WithCancel(context.Background())
	bDone := make(chan error, 1)
	go func() {
		_, err := g.PutCtx(ctx, "acct", "doomed", randBytes(2, 1000))
		bDone <- err
	}()
	waitFor(t, "B to be admitted", func() bool { return g.Counters().Accepted >= 2 })
	cancel()

	// B's submitter answers with the ctx error well before A's 150ms
	// reserve stall clears.
	select {
	case err := <-bDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled Put returned %v, want context.Canceled", err)
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("canceled Put did not return promptly")
	}

	if err := <-aDone; err != nil {
		t.Fatalf("slow Put failed: %v", err)
	}
	usedAfterA := g.svc.StagingUsage().Used // one object's ciphertext
	if usedAfterA == 0 {
		t.Fatal("slow Put staged nothing")
	}
	// Request C drains the queue behind B; when it completes, the
	// worker has already picked up — and must have skipped — B.
	if _, err := g.Put("acct", "after", randBytes(3, 1000)); err != nil {
		t.Fatalf("trailing Put failed: %v", err)
	}
	if got := g.Counters().Canceled; got != 1 {
		t.Fatalf("Canceled counter = %d, want 1", got)
	}
	// Every request taken off the queue is completed, skipped ones too:
	// at rest nothing is in flight.
	if c := g.Counters(); c.Accepted != c.Completed {
		t.Fatalf("counters at rest %+v: %d request(s) still in flight", c, c.Accepted-c.Completed)
	}
	// A and C staged equal payloads; had B reached the service,
	// staging would hold a third object's worth.
	if used := g.svc.StagingUsage().Used; used != 2*usedAfterA {
		t.Fatalf("staging holds %d bytes, want %d; canceled Put reached the service", used, 2*usedAfterA)
	}
}

func TestDeadlineExceededPutReturnsWrapped(t *testing.T) {
	g := slowReserveConfig(t, "300ms")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := g.PutCtx(ctx, "acct", "late", randBytes(3, 1000))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline-exceeded Put returned %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(t0); d > 200*time.Millisecond {
		t.Fatalf("Put hung %s past its 30ms deadline", d)
	}
	if g.Counters().Canceled == 0 {
		t.Fatal("deadline expiry not counted as canceled")
	}
}

func TestSubmitRejectsDeadContextBeforeAdmission(t *testing.T) {
	g := newTestGateway(t, testConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.PutCtx(ctx, "acct", "doa", []byte("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-on-arrival Put returned %v", err)
	}
	if c := g.Counters(); c.Accepted != 0 || c.Canceled != 1 {
		t.Fatalf("counters after DOA request: %+v", c)
	}
}

func TestClientRetryGivesUpWhenCtxExpires(t *testing.T) {
	// A server that always answers 429 with a tiny Retry-After hint.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0.005")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(map[string]string{"error": "perpetually overloaded"})
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Retry = &RetryPolicy{MaxRetries: 1000, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 10 * time.Millisecond, JitterFrac: 0.5, Seed: 1}
	retries := retryCounter(c)
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := c.PutCtx(ctx, "acct", "never", []byte("x"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired retry loop returned %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Fatalf("retry loop ran %s past its ctx deadline", d)
	}
	if retries.Value() == 0 {
		t.Fatal("client recorded no retries before giving up")
	}
}

func TestClientRetryHonorsRetryAfterHint(t *testing.T) {
	var hits int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		if hits <= 2 {
			w.Header().Set("Retry-After", "0.05")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"error": "warming up"})
			return
		}
		json.NewEncoder(w).Encode(map[string]int{"version": 1})
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	// Policy backoff is tiny; the 50ms server hint must dominate.
	c.Retry = &RetryPolicy{MaxRetries: 5, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, Seed: 1}
	retries := retryCounter(c)
	t0 := time.Now()
	v, err := c.Put("acct", "eventually", []byte("x"))
	if err != nil || v != 1 {
		t.Fatalf("retrying put: v=%d err=%v", v, err)
	}
	if d := time.Since(t0); d < 90*time.Millisecond {
		t.Fatalf("two 50ms Retry-After hints honored in only %s", d)
	}
	if got := retries.Value(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
}

func TestDeleteBypassesStagingWatermark(t *testing.T) {
	cfg := testConfig()
	cfg.Service.StagingCapacity = 64 << 10
	cfg.StagingHighWatermark = 0.5
	cfg.DisableRepair = true
	g := newTestGateway(t, cfg)

	if _, err := g.Put("acct", "victim", randBytes(9, 1024)); err != nil {
		t.Fatal(err)
	}
	// Fill staging past the watermark, then confirm Puts are rejected.
	for i := 0; ; i++ {
		if i > 100 {
			t.Fatal("staging never crossed the watermark")
		}
		_, err := g.Put("acct", "fill", randBytes(uint64(i), 8<<10))
		if errors.Is(err, ErrOverloaded) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// Deletes consume no staging: they must pass the watermark check.
	if err := g.Delete("acct", "victim"); err != nil {
		t.Fatalf("delete above watermark: %v", err)
	}
	if _, err := g.Get("acct", "victim"); err == nil {
		t.Fatal("deleted object still readable")
	}
}

func TestConcurrentFlushDuringCloseSerializes(t *testing.T) {
	cfg := testConfig()
	cfg.DisableRepair = true
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Put("acct", "obj", randBytes(5, 2048)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	flushers := make(chan error, 64)
	for i := 0; i < 4; i++ {
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := g.Flush()
				if errors.Is(err, ErrClosed) {
					flushers <- err
					return
				}
				if err != nil {
					flushers <- err
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	if err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	close(stop)
	// After Close returns, explicit flushes must fail closed, not race
	// a drained service.
	if err := g.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("flush after close returned %v, want ErrClosed", err)
	}
	// Any flusher that exited early must have seen ErrClosed, never a
	// shutdown race error.
	for {
		select {
		case err := <-flushers:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("concurrent flusher saw %v", err)
			}
			continue
		default:
		}
		break
	}
}

func TestFaultsAdminEndpoint(t *testing.T) {
	cfg := testConfig()
	cfg.DisableRepair = true
	g := newTestGateway(t, cfg)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)

	ctx := context.Background()
	var p FaultsPayload
	err := c.Call(ctx, http.MethodPost, "/v1/faults", FaultsRequest{
		Rules: []faults.Rule{{Op: faults.OpMediaRead, Platter: -1, Track: -1, Sector: -1, Mode: faults.ModeError}},
		Arm:   []string{"op=media.write,mode=error,every=2"},
	}, &p)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 2 {
		t.Fatalf("armed %d rules, want 2", len(p.Rules))
	}
	if err = c.Call(ctx, http.MethodGet, "/v1/faults", nil, &p); err != nil || len(p.Rules) != 2 {
		t.Fatalf("list: %+v err=%v", p, err)
	}
	if err := c.Call(ctx, http.MethodDelete, "/v1/faults", nil, nil); err != nil {
		t.Fatal(err)
	}
	p = FaultsPayload{}
	if err = c.Call(ctx, http.MethodGet, "/v1/faults", nil, &p); err != nil || len(p.Rules) != 0 {
		t.Fatalf("after clear: %+v err=%v", p, err)
	}
	// Bad rules are rejected with 400, not armed.
	err = c.Call(ctx, http.MethodPost, "/v1/faults", FaultsRequest{Arm: []string{"op=media.write,mode=vaporize"}}, nil)
	if err == nil {
		t.Fatal("bad rule accepted")
	}
}

// TestPooledRequestsAreNeverShared: requests come from a pool, and one
// abandoned while queued is still the worker's. Both workers are held
// (a stalled staging reserve, a stalled media read) while a first wave
// of Puts and Gets queues and half of it is canceled, and a second wave
// queues behind it; had an abandoned request gone back to the pool, the
// second wave would have taken it while it was still queued. Every
// request not canceled gets its own version or its own bytes.
func TestPooledRequestsAreNeverShared(t *testing.T) {
	cfg := testConfig()
	cfg.WriteWorkers, cfg.ReadWorkers = 1, 1
	cfg.WriteQueue, cfg.ReadQueue = 256, 256
	cfg.DisableRepair = true
	g := newTestGateway(t, cfg)

	const perWave = 32
	payload := func(name string) []byte { return []byte("bytes of " + name) }
	for i := 0; i < perWave; i++ {
		name := fmt.Sprintf("get-%02d", i)
		if _, err := g.Put("acct", name, payload(name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Flush(); err != nil { // durable, so Gets read media
		t.Fatal(err)
	}
	for _, rule := range []string{
		"op=staging.reserve,mode=latency,latency=500ms,count=1",
		"op=media.read,mode=latency,latency=500ms,count=1",
	} {
		if err := g.Faults().ArmString(rule); err != nil {
			t.Fatal(err)
		}
	}
	base := g.Counters().Accepted
	var blockers sync.WaitGroup
	blockers.Add(2)
	go func() { defer blockers.Done(); g.Put("acct", "blocker", []byte("x")) }()
	go func() { defer blockers.Done(); g.Get("acct", "get-00") }()
	waitFor(t, "both workers to be held", func() bool { return g.Counters().Accepted >= base+2 })

	type result struct {
		name     string
		put      bool
		canceled bool
		version  int
		data     []byte
		err      error
	}
	results := make([]result, 2*perWave)
	var wg sync.WaitGroup
	submit := func(i int, ctx context.Context) {
		defer wg.Done()
		r := &results[i]
		if r.put {
			r.version, r.err = g.PutCtx(ctx, "acct", r.name, payload(r.name))
		} else {
			r.data, r.err = g.GetInto(ctx, "acct", r.name, nil)
		}
	}
	cancels := make([]context.CancelFunc, 0, perWave/2)
	for i := 0; i < perWave; i++ {
		r := &results[i]
		r.put, r.canceled = i%2 == 0, i%4 < 2
		r.name = fmt.Sprintf("get-%02d", i)
		if r.put {
			r.name = fmt.Sprintf("put-%02d", i)
		}
		ctx := context.Background()
		if r.canceled {
			var cancel context.CancelFunc
			ctx, cancel = context.WithCancel(ctx)
			cancels = append(cancels, cancel)
		}
		wg.Add(1)
		go submit(i, ctx)
	}
	waitFor(t, "the first wave to queue", func() bool { return g.Counters().Accepted >= base+2+perWave })
	for _, cancel := range cancels {
		cancel()
	}
	waitFor(t, "the canceled half to be answered", func() bool { return g.Counters().Canceled >= perWave/2 })
	for i := perWave; i < 2*perWave; i++ {
		r := &results[i]
		r.put = i%2 == 0
		r.name = fmt.Sprintf("get-%02d", i-perWave)
		if r.put {
			r.name = fmt.Sprintf("put-%02d", i)
		}
		wg.Add(1)
		go submit(i, context.Background())
	}
	wg.Wait()
	blockers.Wait()

	for _, r := range results {
		switch {
		case r.canceled && r.err != nil:
			if !errors.Is(r.err, context.Canceled) {
				t.Errorf("%s: canceled request returned %v", r.name, r.err)
			}
		case r.err != nil:
			t.Errorf("%s: %v", r.name, r.err)
		case r.put && r.version != 1:
			t.Errorf("%s: put answered version %d, want 1", r.name, r.version)
		case !r.put && string(r.data) != string(payload(r.name)):
			t.Errorf("%s: get answered %q", r.name, r.data)
		}
	}
	// What each acknowledged Put staged is its own payload.
	for _, r := range results {
		if r.put && r.err == nil {
			if got, err := g.Get("acct", r.name); err != nil || string(got) != string(payload(r.name)) {
				t.Errorf("%s: read back %q, %v", r.name, got, err)
			}
		}
	}
	waitFor(t, "the queues to drain", func() bool { c := g.Counters(); return c.Accepted == c.Completed })
}
