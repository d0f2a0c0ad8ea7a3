package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"silica/internal/gateway"
	"silica/internal/metadata"
	"silica/internal/service"
)

// dirLen reports the directory size: the objects the router has placed.
func dirLen(c *Cluster) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.dir)
}

func newLocalCluster(t *testing.T, n int, seed uint64) *Cluster {
	t.Helper()
	c, err := NewLocal(LocalConfig{
		Libraries: n,
		Cluster:   Config{Seed: seed},
		Gateway:   gateway.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func testPayload(i int) []byte {
	return bytes.Repeat([]byte{byte(i), byte(i >> 8), 0xA5}, 200+i%37)
}

func putKeys(t *testing.T, c *Cluster, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := c.Put("acct", fmt.Sprintf("obj-%03d", i), testPayload(i)); err != nil {
			t.Fatalf("put obj-%03d: %v", i, err)
		}
	}
}

func verifyKeys(t *testing.T, c *Cluster, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		got, err := c.Get("acct", fmt.Sprintf("obj-%03d", i))
		if err != nil {
			t.Fatalf("get obj-%03d: %v", i, err)
		}
		if !bytes.Equal(got, testPayload(i)) {
			t.Fatalf("obj-%03d: payload mismatch (%d bytes)", i, len(got))
		}
	}
}

// victimFor picks the library holding the most primaries.
func victimFor(c *Cluster) string {
	c.mu.RLock()
	counts := map[string]int{}
	for _, e := range c.dir {
		counts[e.Primary]++
	}
	c.mu.RUnlock()
	name, max := "", -1
	for lib, n := range counts {
		if n > max || (n == max && lib < name) {
			name, max = lib, n
		}
	}
	return name
}

func TestClusterPutGetDelete(t *testing.T) {
	const keys = 30
	c := newLocalCluster(t, 3, 7)
	putKeys(t, c, keys)
	verifyKeys(t, c, keys)

	st := c.Status()
	if st.Keys != keys || st.Replicated != keys || st.Unprotected != 0 {
		t.Fatalf("status: keys=%d replicated=%d unprotected=%d, want %d/%d/0",
			st.Keys, st.Replicated, st.Unprotected, keys, keys)
	}
	var prim, repl int
	for _, l := range st.Libraries {
		prim += l.PrimaryKeys
		repl += l.ReplicaKeys
		if l.PrimaryKeys == 0 {
			t.Errorf("library %s holds no primaries across %d keys", l.Name, keys)
		}
	}
	if prim != keys || repl != keys {
		t.Fatalf("placement accounting: %d primaries, %d replicas, want %d each", prim, repl, keys)
	}

	if err := c.Delete("acct", "obj-000"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("acct", "obj-000"); !errors.Is(err, metadata.ErrNotFound) {
		t.Fatalf("get after delete: %v, want ErrNotFound", err)
	}
	if got := dirLen(c); got != keys-1 {
		t.Fatalf("keys after delete: %d, want %d", got, keys-1)
	}
}

// TestClusterKillFailoverAndRebuild is the whole-library failure drill
// at unit scale: kill the biggest primary holder, read everything back
// through cross-library failover, rebuild a fresh member in its place,
// and prove redundancy is fully restored by killing a second library.
func TestClusterKillFailoverAndRebuild(t *testing.T) {
	const keys = 60
	c := newLocalCluster(t, 3, 11)
	putKeys(t, c, keys)

	victim := victimFor(c)
	if err := c.KillLibrary(victim); err != nil {
		t.Fatal(err)
	}
	if !c.Degraded() {
		t.Fatal("cluster not degraded after losing a library")
	}
	verifyKeys(t, c, keys) // every read must fail over byte-exact
	if got := c.Status().RebuildReads; got == 0 {
		t.Fatal("no cross-library rebuild reads despite a dead primary holder")
	}

	rep, err := c.RebuildLibrary(context.Background(), victim, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost != 0 {
		t.Fatalf("rebuild lost %d keys", rep.Lost)
	}
	if rep.KeysMoved == 0 {
		t.Fatal("rebuild moved no keys onto the fresh library")
	}
	if c.Degraded() {
		t.Fatal("cluster still degraded after rebuild")
	}
	if st := c.Status(); st.Unprotected != 0 || st.Replicated != keys {
		t.Fatalf("after rebuild: %d replicated, %d unprotected, want %d/0", st.Replicated, st.Unprotected, keys)
	}

	// Redundancy must be real, not just accounted: lose a different
	// library and read everything again.
	second := ""
	for lib, alive := range c.Libraries() {
		if alive && lib != victim {
			second = lib
			break
		}
	}
	if err := c.KillLibrary(second); err != nil {
		t.Fatal(err)
	}
	verifyKeys(t, c, keys)
}

// TestClusterJoinDrain grows the cluster by one member and shrinks it
// back, checking that only the affected ranges move and nothing is
// ever unreadable.
func TestClusterJoinDrain(t *testing.T) {
	const keys = 50
	c := newLocalCluster(t, 3, 3)
	putKeys(t, c, keys)

	g, err := gateway.New(gateway.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddLibrary("lib-extra", LocalLibrary{G: g}); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Rebalance(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.KeysMoved == 0 {
		t.Fatal("join moved no key ranges onto the new member")
	}
	if rep.KeysMoved == rep.KeysExamined {
		t.Fatalf("join moved all %d keys; consistent hashing should move ~1/4", rep.KeysExamined)
	}
	verifyKeys(t, c, keys)

	drainRep, err := c.DrainLibrary(context.Background(), "lib-extra")
	if err != nil {
		t.Fatal(err)
	}
	if drainRep.Lost != 0 {
		t.Fatalf("drain lost %d keys", drainRep.Lost)
	}
	if _, ok := c.Libraries()["lib-extra"]; ok {
		t.Fatal("drained library still a member")
	}
	verifyKeys(t, c, keys)
	if st := c.Status(); st.Unprotected != 0 {
		t.Fatalf("%d keys unprotected after drain", st.Unprotected)
	}
}

// TestClusterHTTPSurface drives the router through its HTTP API with
// the ordinary gateway client — the router is indistinguishable from a
// single library on the object surface — and reads /v1/cluster back.
func TestClusterHTTPSurface(t *testing.T) {
	c := newLocalCluster(t, 3, 5)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	cl := gateway.NewClient(srv.URL)
	want := []byte("through the router")
	if _, err := cl.Put("acct", "obj", want); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Get("acct", "obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("HTTP read-back mismatch: %q", got)
	}
	if _, err := cl.Get("acct", "missing"); err == nil {
		t.Fatal("GET of a missing object succeeded")
	}

	st, err := FetchStatus(nil, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys != 1 || len(st.Libraries) != 3 || st.Replicated != 1 {
		t.Fatalf("FetchStatus: keys=%d libraries=%d replicated=%d", st.Keys, len(st.Libraries), st.Replicated)
	}
	if err := cl.Delete("acct", "obj"); err != nil {
		t.Fatal(err)
	}

	text, err := cl.MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		"silica_cluster_ring_version", "silica_cluster_keys",
		"silica_cluster_libraries", "silica_cluster_routed_total",
		"silica_cluster_rebuild_reads_total",
		"silica_cluster_rebalance_moved_keys_total",
		"silica_cluster_rebalance_moved_bytes_total",
		"silica_cluster_library_kills_total",
	} {
		if !strings.Contains(text, "# TYPE "+fam+" ") {
			t.Errorf("router /metrics missing family %s", fam)
		}
	}
	if !strings.Contains(text, `state="alive"`) {
		t.Error("first scrape missing the liveness-labeled library gauge")
	}
}

// TestClusterKillLibraryE2E is the PR's acceptance drill: three
// libraries under concurrent retrying load, one destroyed mid-run, a
// fresh member rebuilt from cross-library redundancy before the audit
// — and zero acknowledged writes lost or corrupted.
func TestClusterKillLibraryE2E(t *testing.T) {
	c := newLocalCluster(t, 3, 13)

	victim := make(chan string, 1)
	go func() {
		for dirLen(c) < 8 {
			time.Sleep(2 * time.Millisecond)
		}
		name := victimFor(c)
		if err := c.KillLibrary(name); err != nil {
			t.Errorf("kill: %v", err)
			close(victim)
			return
		}
		victim <- name
	}()

	lc := gateway.LoadConfig{
		Clients:      12,
		OpsPerClient: 16,
		ReadFraction: 0.35,
		ObjectBytes:  1536,
		Seed:         13,
		Retry:        &gateway.RetryPolicy{MaxRetries: 10, BaseBackoff: 2 * time.Millisecond},
		BeforeVerify: func() {
			name, ok := <-victim
			if !ok {
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			rep, err := c.RebuildLibrary(ctx, name, nil)
			if err != nil {
				t.Errorf("rebuild %s: %v", name, err)
			}
			if rep.Lost > 0 {
				t.Errorf("rebuild lost %d keys", rep.Lost)
			}
		},
	}
	rep := gateway.RunLoad(c, lc)
	if rep.Lost != 0 || rep.Corrupted != 0 {
		t.Fatalf("acceptance drill: %d lost, %d corrupted acknowledged writes", rep.Lost, rep.Corrupted)
	}
	if c.Degraded() {
		t.Fatal("cluster degraded after rebuild")
	}
}

// TestStatusCostIndependentOfHistory is the router half of the
// bounded-stats fix: GET /v1/cluster asks every member for its state,
// and what that allocates must not grow with the requests the members
// have served.
func TestStatusCostIndependentOfHistory(t *testing.T) {
	gcfg := gateway.DefaultConfig()
	gcfg.DisableRepair = true
	gcfg.FlushAge = 0
	gcfg.FlushInterval = time.Hour
	c, err := NewLocal(LocalConfig{Libraries: 3, Cluster: Config{Seed: 5}, Gateway: gcfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := c.Put("acct", "hot", testPayload(1)); err != nil {
		t.Fatal(err)
	}
	gets := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := c.Get("acct", "hot"); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The least of several measurements: a background goroutine's
	// allocation landing inside one window must not count.
	statusBytes := func() uint64 {
		least := ^uint64(0)
		var before, after runtime.MemStats
		for i := 0; i < 5; i++ {
			runtime.ReadMemStats(&before)
			c.Status()
			runtime.ReadMemStats(&after)
			if d := after.TotalAlloc - before.TotalAlloc; d < least {
				least = d
			}
		}
		return least
	}
	gets(1000)
	early := statusBytes()
	gets(19000)
	late := statusBytes()
	const slack = 2048
	if late > early+slack {
		t.Fatalf("Status allocates %d B after 20000 gets vs %d B after 1000: cost grows with history", late, early)
	}
}

// TestUnavailableIsOneClassOnBothTransports pins the retryable-class
// fix: "no library can serve this right now" is service.ErrUnavailable
// whether the caller is in-process or behind HTTP, and a member the
// router has closed answers 503 with a Retry-After hint instead of a
// bare 500.
func TestUnavailableIsOneClassOnBothTransports(t *testing.T) {
	empty, err := New(Config{Seed: 3, RetryAfter: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = empty.PutCtx(context.Background(), "acct", "obj", []byte("x"))
	if !errors.Is(err, ErrNoLibraries) || !errors.Is(err, service.ErrUnavailable) {
		t.Fatalf("in-process put with no members: %v, want ErrNoLibraries wrapping service.ErrUnavailable", err)
	}
	srv := httptest.NewServer(empty.Handler())
	defer srv.Close()
	_, err = gateway.NewClient(srv.URL).PutCtx(context.Background(), "acct", "obj", []byte("x"))
	if !errors.Is(err, service.ErrUnavailable) {
		t.Fatalf("HTTP put with no members: %v, want service.ErrUnavailable", err)
	}
	if hint, ok := gateway.RetryAfterHint(err); !ok || hint != 250*time.Millisecond {
		t.Fatalf("HTTP put with no members: Retry-After hint %v (present %v), want 250ms", hint, ok)
	}

	c, err := New(Config{Seed: 3, RetryAfter: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rl := NewRemoteLibrary(gateway.NewClient("http://127.0.0.1:1"))
	if err := c.AddLibrary("peer", rl); err != nil {
		t.Fatal(err)
	}
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = c.PutCtx(context.Background(), "acct", "obj", []byte("x"))
	if !errors.Is(err, ErrLibraryClosed) || !errors.Is(err, service.ErrUnavailable) {
		t.Fatalf("put to a closed member: %v, want ErrLibraryClosed wrapping service.ErrUnavailable", err)
	}
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("PUT", "/v1/objects/acct/obj", strings.NewReader("x")))
	if rec.Code != 503 || rec.Header().Get("Retry-After") != "0.25" {
		t.Fatalf("HTTP put to a closed member: status %d, Retry-After %q; want 503 with 0.25\n%s",
			rec.Code, rec.Header().Get("Retry-After"), rec.Body)
	}
}

// TestRemoteLibraryStateMatchesLocal: a -peers member's state, read off
// the peer's /metrics, equals what the in-process view of the same
// gateway reports — except OldestArrival, which has no metric family.
func TestRemoteLibraryStateMatchesLocal(t *testing.T) {
	gcfg := gateway.DefaultConfig()
	gcfg.FlushAge = 0
	gcfg.FlushBytes = 1 << 40 // only the explicit flush below runs
	gcfg.Service.StagingCapacity = 1 << 20
	g, err := gateway.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	for i := 0; i < 6; i++ {
		if _, err := g.Put("acct", fmt.Sprintf("durable-%d", i), testPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := g.Put("acct", fmt.Sprintf("staged-%d", i), testPayload(100+i)); err != nil {
			t.Fatal(err)
		}
	}

	remote := NewRemoteLibrary(gateway.NewClient(srv.URL)).State()
	local := LocalLibrary{G: g}.State()
	if local.Platters < 1 || local.Flushes != 1 || local.Staging.Pending != 2 || local.Staging.OldestArrival == 0 {
		t.Fatalf("workload did not move the state: %+v", local)
	}
	local.Staging.OldestArrival = 0
	if remote != local {
		t.Fatalf("remote state %+v, local %+v", remote, local)
	}
}

// TestRemoteLibraryReusesConnections: the router → member hop keeps
// its connections. Twenty routed put/get/delete cycles over two
// -peers members open one connection to each, because the member
// client reads every reply — a delete's acknowledgment included — to
// EOF before closing it.
func TestRemoteLibraryReusesConnections(t *testing.T) {
	c, err := New(Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var conns [2]atomic.Int64
	for i := range conns {
		g, err := gateway.New(gateway.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		srv := httptest.NewUnstartedServer(g.Handler())
		srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				conns[i].Add(1)
			}
		}
		srv.Start()
		defer srv.Close()
		tr := &http.Transport{}
		defer tr.CloseIdleConnections()
		cl := gateway.NewClient(srv.URL)
		cl.HTTP = &http.Client{Timeout: time.Minute, Transport: tr}
		if err := c.AddLibrary(fmt.Sprintf("peer-%d", i), NewRemoteLibrary(cl)); err != nil {
			t.Fatal(err)
		}
	}

	ctx := context.Background()
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("obj-%d", i)
		if _, err := c.PutCtx(ctx, "acct", name, testPayload(i)); err != nil {
			t.Fatal(err)
		}
		if got, err := c.GetInto(ctx, "acct", name, nil); err != nil || !bytes.Equal(got, testPayload(i)) {
			t.Fatalf("get %s: err=%v match=%v", name, err, bytes.Equal(got, testPayload(i)))
		}
		if err := c.DeleteCtx(ctx, "acct", name); err != nil {
			t.Fatal(err)
		}
	}
	for i := range conns {
		if n := conns[i].Load(); n != 1 {
			t.Errorf("member %d saw %d connections over 20 cycles, want 1", i, n)
		}
	}
}
