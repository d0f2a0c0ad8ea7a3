package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"silica/internal/gateway"
	"silica/internal/metadata"
)

// memLib is an in-memory Library for router-logic tests: full control
// over failure injection without spinning up real serving stacks.
type memLib struct {
	mu   sync.Mutex
	objs map[string][]byte

	failGet    atomic.Bool
	failDelete atomic.Bool
	// holdPut, when non-nil, blocks every PutCtx until the channel is
	// closed or the caller's ctx ends — the deterministic cancellation
	// gate for the rebalance tests.
	holdPut chan struct{}
}

func newMemLib() *memLib { return &memLib{objs: map[string][]byte{}} }

func memKey(account, name string) string { return account + "/" + name }

func (m *memLib) PutCtx(ctx context.Context, account, name string, data []byte) (int, error) {
	if m.holdPut != nil {
		select {
		case <-m.holdPut:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.objs[memKey(account, name)] = append([]byte(nil), data...)
	return 1, nil
}

func (m *memLib) GetInto(_ context.Context, account, name string, dst []byte) ([]byte, error) {
	if m.failGet.Load() {
		return nil, fmt.Errorf("memlib: injected read failure")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.objs[memKey(account, name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", metadata.ErrNotFound, account, name)
	}
	return append(dst[:0], d...), nil
}

func (m *memLib) DeleteCtx(_ context.Context, account, name string) error {
	if m.failDelete.Load() {
		return fmt.Errorf("memlib: injected delete failure")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.objs[memKey(account, name)]; !ok {
		return fmt.Errorf("%w: %s/%s", metadata.ErrNotFound, account, name)
	}
	delete(m.objs, memKey(account, name))
	return nil
}

func (m *memLib) drop(account, name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.objs, memKey(account, name))
}

func (m *memLib) Flush() error        { return nil }
func (m *memLib) Close() error        { return nil }
func (m *memLib) State() LibraryState { return LibraryState{Healthy: true} }

// newMemCluster builds a router over n memLibs (no persistence).
func newMemCluster(t *testing.T, n int, seed uint64) (*Cluster, map[string]*memLib) {
	t.Helper()
	c, err := New(Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	libs := make(map[string]*memLib, n)
	for i := 0; i < n; i++ {
		l := newMemLib()
		libs[libName(i)] = l
		if err := c.AddLibrary(libName(i), l); err != nil {
			t.Fatal(err)
		}
	}
	return c, libs
}

// placementOf snapshots the directory for comparison between runs.
func placementOf(c *Cluster) map[dirKey]entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[dirKey]entry, len(c.dir))
	for k, e := range c.dir {
		out[k] = *e
	}
	return out
}

// TestGetFailoverOnPrimaryNotFound pins the NotFound failover fix: a
// primary that answers NotFound must not end the read — the replica
// copy may survive (partially failed delete, primary-side loss) — and
// 404 is only correct when every reachable copy-holder agrees.
func TestGetFailoverOnPrimaryNotFound(t *testing.T) {
	c, libs := newMemCluster(t, 3, 5)
	want := []byte("still on the replica")
	if _, err := c.Put("acct", "obj", want); err != nil {
		t.Fatal(err)
	}
	pl := placementOf(c)[dirKey{"acct", "obj"}]

	// Primary-side loss within the same epoch: the object vanishes from
	// the primary holder but the directory still points there.
	libs[pl.Primary].drop("acct", "obj")
	got, err := c.Get("acct", "obj")
	if err != nil {
		t.Fatalf("get after primary-side loss: %v (replica copy was readable)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("failover read returned %q", got)
	}

	// Replica erroring (not NotFound) while the primary says NotFound:
	// a half-observed state, NOT a 404.
	libs[pl.Replica].failGet.Store(true)
	if _, err := c.Get("acct", "obj"); err == nil {
		t.Fatal("read served despite both copies unavailable")
	} else if errors.Is(err, metadata.ErrNotFound) {
		t.Fatalf("NotFound despite replica erroring: %v", err)
	}
	libs[pl.Replica].failGet.Store(false)

	// Both copies agree the object is gone: now it is a 404.
	libs[pl.Replica].drop(replicaPrefix+"acct", "obj")
	if _, err := c.Get("acct", "obj"); !errors.Is(err, metadata.ErrNotFound) {
		t.Fatalf("get with both copies gone: %v, want ErrNotFound", err)
	}
}

// TestDeleteResumable pins the partial-delete fix: a failed side
// leaves a tombstoned entry that reads as gone and is finished by a
// retry (or a reconcile pass) instead of stranding the key forever.
func TestDeleteResumable(t *testing.T) {
	c, libs := newMemCluster(t, 3, 9)
	if _, err := c.Put("acct", "obj", []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	pl := placementOf(c)[dirKey{"acct", "obj"}]

	libs[pl.Replica].failDelete.Store(true)
	if err := c.Delete("acct", "obj"); err == nil {
		t.Fatal("delete succeeded despite replica-side failure")
	}
	// Entry survives (resumable), but the object reads as deleted.
	if dirLen(c) != 1 {
		t.Fatalf("keys after failed delete: %d, want tombstoned entry to survive", dirLen(c))
	}
	if _, err := c.Get("acct", "obj"); !errors.Is(err, metadata.ErrNotFound) {
		t.Fatalf("get of tombstoned key: %v, want ErrNotFound", err)
	}

	// Retry completes the delete once the fault clears.
	libs[pl.Replica].failDelete.Store(false)
	if err := c.Delete("acct", "obj"); err != nil {
		t.Fatalf("resumed delete: %v", err)
	}
	if dirLen(c) != 0 {
		t.Fatalf("keys after resumed delete: %d", dirLen(c))
	}
	if _, ok := libs[pl.Replica].objs[memKey(replicaPrefix+"acct", "obj")]; ok {
		t.Fatal("replica copy survived the resumed delete")
	}

	// Same half-delete, finished by reconcile instead of a retry.
	if _, err := c.Put("acct", "obj2", []byte("doomed too")); err != nil {
		t.Fatal(err)
	}
	pl2 := placementOf(c)[dirKey{"acct", "obj2"}]
	libs[pl2.Primary].failDelete.Store(true)
	if err := c.Delete("acct", "obj2"); err == nil {
		t.Fatal("delete succeeded despite primary-side failure")
	}
	libs[pl2.Primary].failDelete.Store(false)
	rep, err := c.Rebalance(context.Background(), 0)
	if err != nil {
		t.Fatalf("reconcile after half-delete: %v", err)
	}
	if dirLen(c) != 0 {
		t.Fatalf("reconcile left %d keys (report %+v); want the tombstoned entry completed", dirLen(c), rep)
	}
}

// TestRemoteLibraryClose pins the Close fix: a closed remote member is
// unreachable (ErrLibraryClosed) rather than silently usable, and
// Close is idempotent.
func TestRemoteLibraryClose(t *testing.T) {
	rl := NewRemoteLibrary(gateway.NewClient("http://127.0.0.1:1"))
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rl.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := rl.PutCtx(context.Background(), "a", "n", nil); !errors.Is(err, ErrLibraryClosed) {
		t.Fatalf("put on closed member: %v, want ErrLibraryClosed", err)
	}
	if _, err := rl.GetInto(context.Background(), "a", "n", nil); !errors.Is(err, ErrLibraryClosed) {
		t.Fatalf("get on closed member: %v, want ErrLibraryClosed", err)
	}
	if err := rl.DeleteCtx(context.Background(), "a", "n"); !errors.Is(err, ErrLibraryClosed) {
		t.Fatalf("delete on closed member: %v, want ErrLibraryClosed", err)
	}
	if err := rl.Flush(); !errors.Is(err, ErrLibraryClosed) {
		t.Fatalf("flush on closed member: %v, want ErrLibraryClosed", err)
	}
	if st := rl.State(); st.Healthy {
		t.Fatal("closed member reports healthy")
	}
}

// TestRebalanceParallelMatchesSerial is the acceptance check for the
// parallel walk: workers=1 and workers=8 must leave byte-identical
// placement and identical reports on identical inputs.
func TestRebalanceParallelMatchesSerial(t *testing.T) {
	const keys = 40
	run := func(workers int) (map[dirKey]entry, RebalanceReport, *Cluster) {
		c, _ := newMemCluster(t, 3, 77)
		putKeys(t, c, keys)
		if err := c.AddLibrary("lib-extra", newMemLib()); err != nil {
			t.Fatal(err)
		}
		rep, err := c.Rebalance(context.Background(), workers)
		if err != nil {
			t.Fatalf("rebalance workers=%d: %v", workers, err)
		}
		return placementOf(c), rep, c
	}
	serialDir, serialRep, cs := run(1)
	parallelDir, parallelRep, cp := run(8)

	if serialRep.KeysExamined != parallelRep.KeysExamined ||
		serialRep.KeysMoved != parallelRep.KeysMoved ||
		serialRep.BytesMoved != parallelRep.BytesMoved ||
		serialRep.Lost != parallelRep.Lost ||
		serialRep.Errors != parallelRep.Errors {
		t.Fatalf("reports differ:\n workers=1: %+v\n workers=8: %+v", serialRep, parallelRep)
	}
	if len(serialDir) != len(parallelDir) {
		t.Fatalf("directory sizes differ: %d vs %d", len(serialDir), len(parallelDir))
	}
	for k, se := range serialDir {
		pe, ok := parallelDir[k]
		if !ok || se != pe {
			t.Fatalf("placement for %s differs: serial %+v, parallel %+v", k, se, pe)
		}
	}
	verifyKeys(t, cs, keys)
	verifyKeys(t, cp, keys)
	if serialRep.KeysMoved == 0 {
		t.Fatal("join rebalance moved nothing; the comparison proved nothing")
	}
}

// TestRebalanceAggregatesErrors pins the firstErr fix: every per-key
// failure is counted and joined, not just the first.
func TestRebalanceAggregatesErrors(t *testing.T) {
	const keys = 30
	c, libs := newMemCluster(t, 3, 11)
	putKeys(t, c, keys)
	victim := victimFor(c)
	if err := c.KillLibrary(victim); err != nil {
		t.Fatal(err)
	}
	// Every surviving copy is unreadable: each key that lost a copy to
	// the victim now fails its reconcile read independently.
	for n, l := range libs {
		if n != victim {
			l.failGet.Store(true)
		}
	}
	rep, err := c.Rebalance(context.Background(), 4)
	if err == nil {
		t.Fatal("rebalance reported success despite unreadable sources")
	}
	if rep.Errors < 2 {
		t.Fatalf("rep.Errors = %d, want every failed key counted", rep.Errors)
	}
	if rep.Lost != rep.Errors {
		t.Fatalf("Lost=%d Errors=%d; in this setup every failure is a no-copy failure", rep.Lost, rep.Errors)
	}
	if got := strings.Count(err.Error(), "rebalance "); got != rep.Errors {
		t.Fatalf("joined error carries %d per-key failures, report says %d", got, rep.Errors)
	}
	if len(rep.ErrorSamples) == 0 || len(rep.ErrorSamples) > maxErrorSamples {
		t.Fatalf("ErrorSamples: %d entries", len(rep.ErrorSamples))
	}
}

// TestRebalanceCancelAndResume: a ctx canceled mid-walk must leave
// every key readable (examined keys fully reconciled, unexamined keys
// untouched), and a resumed pass must converge.
func TestRebalanceCancelAndResume(t *testing.T) {
	const keys = 60
	c, _ := newMemCluster(t, 3, 21)
	putKeys(t, c, keys)

	// The new member blocks every incoming move until released, so the
	// cancellation point is deterministic: no move completes before
	// cancel, and the walk is provably interrupted mid-stream.
	gate := make(chan struct{})
	extra := newMemLib()
	extra.holdPut = gate
	if err := c.AddLibrary("lib-extra", extra); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var rep RebalanceReport
	var rerr error
	go func() {
		rep, rerr = c.Rebalance(ctx, 4)
		close(done)
	}()
	cancel()
	<-done
	if rerr == nil && rep.KeysMoved > 0 {
		t.Fatalf("canceled rebalance reported clean success: %+v", rep)
	}
	if rep.KeysExamined >= keys && rep.Errors == 0 {
		t.Fatalf("cancellation did not interrupt the walk: %+v", rep)
	}
	// Consistency: every key still readable byte-exact, whether its
	// reconcile ran, failed, or never started.
	verifyKeys(t, c, keys)

	// Resume with the gate open: the walk converges.
	close(gate)
	if _, err := c.Rebalance(context.Background(), 4); err != nil {
		t.Fatalf("resumed rebalance: %v", err)
	}
	final, err := c.Rebalance(context.Background(), 1)
	if err != nil {
		t.Fatalf("convergence pass: %v", err)
	}
	if final.KeysMoved != 0 || final.Errors != 0 {
		t.Fatalf("rebalance did not converge: %+v", final)
	}
	verifyKeys(t, c, keys)
	if st := c.Status(); st.Unprotected != 0 {
		t.Fatalf("%d keys unprotected after resume", st.Unprotected)
	}
}

// TestRebalanceRaceWithTraffic exercises the parallel walk against
// concurrent foreground traffic; the race detector (CI race job) is
// the assertion.
func TestRebalanceRaceWithTraffic(t *testing.T) {
	const keys = 48
	c, _ := newMemCluster(t, 3, 31)
	putKeys(t, c, keys)
	if err := c.AddLibrary("lib-extra", newMemLib()); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n := (i*7 + w) % keys
				switch i % 3 {
				case 0:
					_, _ = c.Put("acct", fmt.Sprintf("obj-%03d", n), testPayload(n))
				case 1:
					_, _ = c.Get("acct", fmt.Sprintf("obj-%03d", n))
				default:
					_ = c.Delete("acct", fmt.Sprintf("obj-%03d", n))
				}
			}
		}(w)
	}
	if _, err := c.Rebalance(context.Background(), 8); err != nil {
		t.Fatalf("rebalance under traffic: %v", err)
	}
	close(stop)
	wg.Wait()

	// Whatever survived the churn must be readable and converge.
	if _, err := c.Rebalance(context.Background(), 4); err != nil {
		t.Fatalf("settling pass: %v", err)
	}
	for k, e := range placementOf(c) {
		if _, err := c.Get(e.Account, e.Name); err != nil {
			t.Fatalf("surviving key %s unreadable: %v", k, err)
		}
	}
}
