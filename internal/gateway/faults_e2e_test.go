package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// promValue sums the parsed samples of one metric family (across all
// label sets).
func promValue(t *testing.T, c *Client, name string) float64 {
	t.Helper()
	samples, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range samples {
		if s.Name == name {
			sum += s.Value
		}
	}
	return sum
}

// TestFaultedClosedLoopLosesNoAcknowledgedWrite is the end-to-end
// lifecycle drill: staging-reserve faults reject Puts at admission-
// equivalent depth, media-write faults scrap platters mid-flush, a few
// requests arrive already canceled — and the retrying client must
// still land every acknowledged write byte-exact on glass, while
// canceled requests never touch the service layer.
func TestFaultedClosedLoopLosesNoAcknowledgedWrite(t *testing.T) {
	cfg := testConfig()
	cfg.DisableRepair = true
	cfg.FlushAge = 30 * time.Millisecond // scheduler flushes during the workload
	cfg.FlushBytes = 0                   // one platter's worth
	cfg.RetryAfter = 20 * time.Millisecond
	cfg.FaultSeed = 42
	cfg.FaultRules = []string{
		// Every 4th reservation fails with a typed capacity error (6
		// total): the worker maps it to ErrOverloaded, the HTTP layer
		// to 429, and the client must absorb all of them.
		"op=staging.reserve,mode=error,err=capacity,every=4,count=6",
		// Two burn faults scrap their platters mid-flush; the files
		// stay staged and must land on fresh glass in a later round.
		"op=media.write,mode=error,every=37,count=2",
	}
	g := newTestGateway(t, cfg)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Retry = &RetryPolicy{MaxRetries: 20, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 100 * time.Millisecond, JitterFrac: 0.5, Seed: 7}
	c.Instrument(g.Metrics())

	// Closed-loop writers: every acknowledged Put is recorded and must
	// survive to the final audit.
	const writers = 8
	const opsPerWriter = 6
	const size = 2000
	var mu sync.Mutex
	acked := map[string]uint64{}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWriter; i++ {
				name := fmt.Sprintf("obj-%d-%d", w, i)
				seed := uint64(w*1000 + i)
				if _, err := c.Put("acct", name, randBytes(seed, size)); err != nil {
					t.Errorf("put %s: %v", name, err)
					return
				}
				mu.Lock()
				acked[name] = seed
				mu.Unlock()
				// Read-after-write on the staged copy.
				got, err := c.Get("acct", name)
				if err != nil || !bytes.Equal(got, randBytes(seed, size)) {
					t.Errorf("staged get %s: err=%v", name, err)
					return
				}
			}
		}(w)
	}
	// A few callers give up before their requests are admitted; the
	// gateway must count them and keep them out of the service.
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := g.PutCtx(ctx, "acct", "ghost", randBytes(uint64(i), 64)); !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-canceled Put returned %v", err)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Drain staging through the retrying client; burn faults may scrap
	// platters in early rounds, so flush until everything is durable.
	waitFor(t, "staging to drain", func() bool {
		if err := c.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		return g.svc.StagingUsage().Used == 0
	})

	// Zero lost acknowledged writes, byte-exact from glass.
	for name, seed := range acked {
		got, err := c.Get("acct", name)
		if err != nil {
			t.Fatalf("acked object %s lost: %v", name, err)
		}
		if !bytes.Equal(got, randBytes(seed, size)) {
			t.Fatalf("acked object %s corrupted", name)
		}
	}
	if len(acked) != writers*opsPerWriter {
		t.Fatalf("only %d/%d writes acknowledged", len(acked), writers*opsPerWriter)
	}

	// The whole drill must actually have exercised the machinery,
	// asserted through the obs counters the paper's operators would
	// watch.
	if v := promValue(t, c, "silica_faults_injected_total"); v == 0 {
		t.Fatal("no faults injected; the drill tested nothing")
	}
	if v := promValue(t, c, "silica_gateway_canceled_total"); v < 3 {
		t.Fatalf("silica_gateway_canceled_total = %v, want >= 3", v)
	}
	if v := promValue(t, c, "silica_client_retries_total"); v == 0 {
		t.Fatal("client never retried; reserve faults were not surfaced")
	}
	if got := g.Faults().Total(); got == 0 {
		t.Fatal("injector reports zero injections")
	}
	snap := g.Faults().Snapshot()
	for _, rs := range snap {
		if rs.Fires == 0 {
			t.Errorf("rule %q never fired (matches=%d)", rs.Rule.String(), rs.Matches)
		}
	}
	st := g.svc.Stats()
	if st.PlattersFaulted == 0 {
		t.Error("media.write faults scrapped no platters")
	}
	t.Logf("drill: %d acked, %d faults (%d platters scrapped), %d client retries, %d canceled",
		len(acked), g.Faults().Total(), st.PlattersFaulted,
		g.Metrics().Counter("silica_client_retries_total", "").Value(), g.Counters().Canceled)
}
