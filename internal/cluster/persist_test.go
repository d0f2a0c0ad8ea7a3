package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"silica/internal/faults"
	"silica/internal/gateway"
	"silica/internal/metadata"
)

func persistentConfig(dir string, seed uint64, inj *faults.Injector) LocalConfig {
	return LocalConfig{
		Libraries:  3,
		Cluster:    Config{Seed: seed, Faults: inj},
		Gateway:    gateway.DefaultConfig(),
		PersistDir: dir,
	}
}

// TestClusterRouterRestartRecovers: graceful stop, new process, same
// directory — every placement, every delete, byte-exact.
func TestClusterRouterRestartRecovers(t *testing.T) {
	dir := t.TempDir()
	const keys, deleted = 24, 4

	c1, err := NewLocal(persistentConfig(dir, 7, nil))
	if err != nil {
		t.Fatal(err)
	}
	putKeys(t, c1, keys)
	for i := 0; i < deleted; i++ {
		if err := c1.Delete("acct", fmt.Sprintf("obj-%03d", i)); err != nil {
			t.Fatalf("delete obj-%03d: %v", i, err)
		}
	}
	if err := c1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	c2, err := NewLocal(persistentConfig(dir, 7, nil))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(func() { c2.Close() })
	if !c2.Status().Persist {
		t.Fatal("restarted router does not report persistence")
	}
	if got := dirLen(c2); got != keys-deleted {
		t.Fatalf("recovered directory holds %d keys, want %d", got, keys-deleted)
	}
	for i := 0; i < keys; i++ {
		name := fmt.Sprintf("obj-%03d", i)
		got, err := c2.Get("acct", name)
		if i < deleted {
			if !errors.Is(err, metadata.ErrNotFound) {
				t.Fatalf("deleted %s resurrected across restart: %v", name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("get %s after restart: %v", name, err)
		}
		if !bytes.Equal(got, testPayload(i)) {
			t.Fatalf("%s: payload mismatch after restart (%d bytes)", name, len(got))
		}
	}
}

// TestClusterRouterCrashRecovers is the in-process kill -9 drill: the
// router log freezes mid-load at an armed kill point, a successor
// opens the same directory, and every acked write is byte-exact. One
// writer pins the exact ack count; eight race the kill point, so puts
// in flight on both sides of the freeze meet the audit.
func TestClusterRouterCrashRecovers(t *testing.T) {
	for _, writers := range []int{1, 8} {
		t.Run(fmt.Sprintf("writers=%d", writers), func(t *testing.T) {
			testRouterCrashRecovers(t, writers)
		})
	}
}

func testRouterCrashRecovers(t *testing.T, writers int) {
	dir := t.TempDir()
	const total, before = 40, 20

	inj := faults.New(1)
	c1, err := NewLocal(persistentConfig(dir, 7, inj))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c1.Close() })
	inj.SetKill(func() { c1.CrashPersist() })
	if err := inj.ArmString(fmt.Sprintf("kill@%s:after=%d,count=1", faults.OpClusterPlace, before)); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	acked := map[int][]byte{}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < total; i += writers {
				if _, err := c1.Put("acct", fmt.Sprintf("obj-%03d", i), testPayload(i)); err == nil {
					mu.Lock()
					acked[i] = testPayload(i)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if !c1.PersistCrashed() {
		t.Fatal("armed kill point never fired")
	}
	// Only the placements ahead of the kill point can be acked; with
	// racing writers some of those may still meet the frozen log.
	if len(acked) > before || (writers == 1 && len(acked) != before) {
		t.Fatalf("%d puts acked; a frozen log must refuse acks (want %d)", len(acked), before)
	}
	t.Logf("%d of %d puts acked before the crash", len(acked), total)

	// Successor: same router directory, the crashed router's member
	// handles re-attached (the members themselves never died).
	handles := c1.Detach()
	c2, err := New(Config{Seed: 7, PersistDir: RouterPersistDir(dir)})
	if err != nil {
		t.Fatalf("successor open: %v", err)
	}
	t.Cleanup(func() { c2.Close() })
	for name, lib := range handles {
		if err := c2.AddLibrary(name, lib); err != nil {
			t.Fatalf("re-attach %s: %v", name, err)
		}
	}

	for i := 0; i < total; i++ {
		name := fmt.Sprintf("obj-%03d", i)
		got, err := c2.Get("acct", name)
		want, wasAcked := acked[i]
		switch {
		case wasAcked && err != nil:
			t.Fatalf("acked %s lost across crash: %v", name, err)
		case wasAcked && !bytes.Equal(got, want):
			t.Fatalf("acked %s corrupted across crash (%d bytes)", name, len(got))
		case !wasAcked && err != nil && !errors.Is(err, metadata.ErrNotFound):
			t.Fatalf("unacked %s: %v, want NotFound or the exact payload", name, err)
		case !wasAcked && err == nil && !bytes.Equal(got, testPayload(i)):
			t.Fatalf("unacked %s returned wrong bytes", name)
		}
	}

	// The successor is a working router, not a read-only shrine.
	if _, err := c2.Put("acct", "fresh", []byte("post-recovery write")); err != nil {
		t.Fatalf("put on successor: %v", err)
	}
	if got, err := c2.Get("acct", "fresh"); err != nil || !bytes.Equal(got, []byte("post-recovery write")) {
		t.Fatalf("fresh key on successor: %v", err)
	}
}

// TestClusterRouterCrashOnDelete: crash between the durable tombstone
// and the completion record. The successor must read the key as gone
// and a reconcile pass must finish the half-done delete.
func TestClusterRouterCrashOnDelete(t *testing.T) {
	dir := t.TempDir()
	const keys = 10

	inj := faults.New(3)
	c1, err := NewLocal(persistentConfig(dir, 13, inj))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c1.Close() })
	putKeys(t, c1, keys)
	inj.SetKill(func() { c1.CrashPersist() })
	// after=1 skips the tombstone append and fires on the completion
	// record: intent is durable, copies are removed, completion is lost.
	if err := inj.ArmString(fmt.Sprintf("kill@%s:after=1,count=1", faults.OpClusterDelete)); err != nil {
		t.Fatal(err)
	}
	if err := c1.Delete("acct", "obj-003"); err == nil {
		t.Fatal("delete acked despite crashing before the completion record")
	}
	if !c1.PersistCrashed() {
		t.Fatal("kill point never fired")
	}

	handles := c1.Detach()
	c2, err := New(Config{Seed: 13, PersistDir: RouterPersistDir(dir)})
	if err != nil {
		t.Fatalf("successor open: %v", err)
	}
	t.Cleanup(func() { c2.Close() })
	for name, lib := range handles {
		if err := c2.AddLibrary(name, lib); err != nil {
			t.Fatal(err)
		}
	}

	// The tombstoned entry is recovered (still pending) but reads as gone.
	if got := dirLen(c2); got != keys {
		t.Fatalf("recovered %d entries, want %d (tombstoned entry must survive)", got, keys)
	}
	if _, err := c2.Get("acct", "obj-003"); !errors.Is(err, metadata.ErrNotFound) {
		t.Fatalf("tombstoned key after crash: %v, want ErrNotFound", err)
	}
	// Reconcile finishes the delete; everything else is untouched.
	if _, err := c2.Rebalance(context.Background(), 0); err != nil {
		t.Fatalf("reconcile after crash: %v", err)
	}
	if got := dirLen(c2); got != keys-1 {
		t.Fatalf("%d entries after reconcile, want %d", got, keys-1)
	}
	for i := 0; i < keys; i++ {
		if i == 3 {
			continue
		}
		got, err := c2.Get("acct", fmt.Sprintf("obj-%03d", i))
		if err != nil || !bytes.Equal(got, testPayload(i)) {
			t.Fatalf("obj-%03d after crash+reconcile: %v", i, err)
		}
	}
}

// TestClusterRestartPreservesKilledMember: a member killed before the
// restart stays dead afterwards (its epoch pins the lost copies), reads
// fail over to surviving copies, and RebuildLibrary still revives it.
func TestClusterRestartPreservesKilledMember(t *testing.T) {
	dir := t.TempDir()
	const keys = 20

	c1, err := NewLocal(persistentConfig(dir, 29, nil))
	if err != nil {
		t.Fatal(err)
	}
	putKeys(t, c1, keys)
	victim := victimFor(c1)
	if err := c1.KillLibrary(victim); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	c2, err := NewLocal(persistentConfig(dir, 29, nil))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(func() { c2.Close() })
	if alive := c2.Libraries()[victim]; alive {
		t.Fatalf("killed member %s resurrected by restart", victim)
	}
	verifyKeys(t, c2, keys) // every key served from surviving copies

	rep, err := c2.RebuildLibrary(context.Background(), victim, nil)
	if err != nil {
		t.Fatalf("rebuild after restart: %v (report %+v)", err, rep)
	}
	if rep.Lost != 0 || rep.Errors != 0 {
		t.Fatalf("rebuild lost data: %+v", rep)
	}
	verifyKeys(t, c2, keys)
	if st := c2.Status(); st.Unprotected != 0 {
		t.Fatalf("%d keys unprotected after rebuild", st.Unprotected)
	}
}

// TestClusterSeedMismatch: a router directory written under one ring
// seed refuses to open under another — silent re-placement of every
// key would strand the archive.
func TestClusterSeedMismatch(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewLocal(persistentConfig(dir, 7, nil))
	if err != nil {
		t.Fatal(err)
	}
	putKeys(t, c1, 4)
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := NewLocal(persistentConfig(dir, 8, nil))
	if err == nil {
		c2.Close()
		t.Fatal("router directory written under seed=7 opened under seed=8")
	}
	if !strings.Contains(err.Error(), "seed") {
		t.Fatalf("mismatch error does not name the seed: %v", err)
	}
}

// TestClusterRouterRestartWithoutMember: a member recovered from the
// router log but not re-attached (a restart with one library fewer)
// stays on the ring with no serving handle. Placement must go around
// it — no put fails and none is acknowledged with a single copy — and
// the router reports degraded until the member is attached or drained.
func TestClusterRouterRestartWithoutMember(t *testing.T) {
	dir := t.TempDir()
	libs := map[string]*memLib{}
	open := func(attach ...string) *Cluster {
		c, err := New(Config{Seed: 5, PersistDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range attach {
			if libs[n] == nil {
				libs[n] = newMemLib()
			}
			if err := c.AddLibrary(n, libs[n]); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	healthz := func(c *Cluster) int {
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/healthz", nil))
		return rec.Code
	}
	if err := open("lib-0", "lib-1", "lib-2").Close(); err != nil {
		t.Fatal(err)
	}

	c := open("lib-0", "lib-1")
	const keys = 200
	putKeys(t, c, keys)
	st := c.Status()
	replicas := 0
	for _, l := range st.Libraries {
		replicas += l.ReplicaKeys
	}
	if st.Keys != keys || replicas != keys || st.Replicated != keys || st.Unprotected != 0 {
		t.Fatalf("keys=%d replicas=%d replicated=%d unprotected=%d, want %d/%d/%d/0",
			st.Keys, replicas, st.Replicated, st.Unprotected, keys, keys, keys)
	}
	if code := healthz(c); code != 503 {
		t.Fatalf("healthz with an unattached member: %d, want 503", code)
	}
	if err := c.AddLibrary("lib-2", newMemLib()); err != nil {
		t.Fatal(err)
	}
	if code := healthz(c); code != 200 {
		t.Fatalf("healthz after attaching lib-2: %d, want 200", code)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c = open("lib-0", "lib-1")
	t.Cleanup(func() { c.Close() })
	if code := healthz(c); code != 503 {
		t.Fatalf("healthz with an unattached member: %d, want 503", code)
	}
	if _, err := c.DrainLibrary(context.Background(), "lib-2"); err != nil {
		t.Fatal(err)
	}
	if code := healthz(c); code != 200 {
		t.Fatalf("healthz after draining lib-2: %d, want 200", code)
	}
	verifyKeys(t, c, keys)
}
