package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"silica/internal/persist"
	"silica/internal/sim"
)

// The history golden pins what the router does for one seeded script:
// every member call in order, the bytes of the router log, the state a
// fresh recovery reads back from that log, and the final Status. The
// per-key paths may be rewritten freely underneath it; regenerating
// the file (-update-golden) is a behaviour change and must be called
// out as one.
var updateGolden = flag.Bool("update-golden", false, "rewrite internal/cluster/testdata/history.golden from the current router")

// callLog is the ordered record of the object calls the script's
// members receive.
type callLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *callLog) add(lib, op, account, name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf("%s %s %s %s", lib, op, account, name))
}

// take returns the calls recorded since the last take.
func (l *callLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.lines
	l.lines = nil
	return out
}

// recLib is a memLib that records every object call it receives.
type recLib struct {
	*memLib
	name string
	log  *callLog
}

func (r recLib) PutCtx(ctx context.Context, account, name string, data []byte) (int, error) {
	r.log.add(r.name, "put", account, name)
	return r.memLib.PutCtx(ctx, account, name, data)
}

func (r recLib) GetInto(ctx context.Context, account, name string, dst []byte) ([]byte, error) {
	r.log.add(r.name, "get", account, name)
	return r.memLib.GetInto(ctx, account, name, dst)
}

func (r recLib) DeleteCtx(ctx context.Context, account, name string) error {
	r.log.add(r.name, "delete", account, name)
	return r.memLib.DeleteCtx(ctx, account, name)
}

// perKey orders one rebalance step's calls by the key they serve. A
// key's reads stay in the order they were issued; its copy puts, and
// then its retiring deletes, are independent of each other and are
// listed sorted.
func perKey(lines []string) []string {
	type call struct {
		key, line string
		rank      int
	}
	calls := make([]call, len(lines))
	for i, ln := range lines {
		f := strings.Fields(ln) // lib op account name
		calls[i] = call{key: strings.TrimPrefix(f[2], replicaPrefix) + "/" + f[3], line: ln,
			rank: map[string]int{"get": 0, "put": 1, "delete": 2}[f[1]]}
	}
	sort.SliceStable(calls, func(i, j int) bool {
		a, b := calls[i], calls[j]
		if a.key != b.key {
			return a.key < b.key
		}
		if a.rank != b.rank {
			return a.rank < b.rank
		}
		return a.rank > 0 && a.line < b.line
	})
	out := make([]string, len(calls))
	for i, cl := range calls {
		out[i] = cl.line
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// TestRouterHistoryGolden drives a persistent router over three
// call-recording members through put, overwrite, failover read, delete,
// a delete resumed after a member refused it, kill, rebuild, join,
// drain and serial rebalances, and compares the whole history with
// testdata/history.golden.
//
// Join, DrainLibrary and RebuildLibrary get an already-cancelled
// context: they record the membership change, their own walk (at the
// default width, whose log order depends on scheduling) examines
// nothing, and the moves are then made by the serial walk that
// POST /v1/cluster/rebalance?workers=1 runs.
func TestRouterHistoryGolden(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Seed: 41, PersistDir: dir, PersistSnapshotEvery: math.MaxInt64})
	if err != nil {
		t.Fatal(err)
	}
	calls := &callLog{}
	libs := map[string]*memLib{}
	attach := func(name string) recLib {
		libs[name] = newMemLib()
		return recLib{memLib: libs[name], name: name, log: calls}
	}
	for i := 0; i < 3; i++ {
		if err := c.AddLibrary(libName(i), attach(libName(i))); err != nil {
			t.Fatal(err)
		}
	}
	// holder names the member storing account/name (the replica copy
	// lives under the replicaPrefix account).
	holder := func(account, name string) string {
		for n, l := range libs {
			l.mu.Lock()
			_, ok := l.objs[memKey(account, name)]
			l.mu.Unlock()
			if ok {
				return n
			}
		}
		t.Fatalf("no member holds %s/%s", account, name)
		return ""
	}

	var out bytes.Buffer
	step := func(format string, args ...any) {
		fmt.Fprintf(&out, "## "+format+"\n", args...)
		for _, ln := range calls.take() {
			fmt.Fprintln(&out, ln)
		}
	}
	rng := sim.NewRNG(41)
	want := map[string][]byte{}
	put := func(name string) {
		data := make([]byte, 64+rng.Intn(256))
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		v, err := c.Put("acct", name, data)
		if err == nil {
			want[name] = data
		}
		step("put acct/%s (%d B): version %d, %s", name, len(data), v, errText(err))
	}
	get := func(name string) {
		got, err := c.Get("acct", name)
		if err == nil && !bytes.Equal(got, want[name]) {
			t.Fatalf("get %s: wrong bytes", name)
		}
		step("get acct/%s: %d B, %s", name, len(got), errText(err))
	}
	getAll := func() {
		names := make([]string, 0, len(want))
		for n := range want {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			get(n)
		}
	}
	del := func(name string) {
		err := c.Delete("acct", name)
		if err == nil {
			delete(want, name)
		}
		step("delete acct/%s: %s", name, errText(err))
	}
	rebalance := func() {
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/cluster/rebalance?workers=1", nil))
		fmt.Fprintf(&out, "## rebalance workers=1: HTTP %d %s", rec.Code, rec.Body)
		for _, ln := range perKey(calls.take()) {
			fmt.Fprintln(&out, ln)
		}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	for i := 0; i < 16; i++ {
		put(fmt.Sprintf("obj-%02d", i))
	}
	put("obj-03")
	put("obj-07")

	libs[holder("acct", "obj-05")].drop("acct", "obj-05")
	get("obj-05")

	del("obj-09")

	refuser := libs[holder(replicaPrefix+"acct", "obj-11")]
	refuser.failDelete.Store(true)
	del("obj-11")
	get("obj-11")
	refuser.failDelete.Store(false)
	del("obj-11")

	victim := victimFor(c)
	step("kill %s: %s", victim, errText(c.KillLibrary(victim)))
	getAll()

	_, err = c.RebuildLibrary(cancelled, victim, attach(victim))
	step("rebuild %s: %s", victim, errText(err))
	rebalance()

	if err = c.AddLibrary("lib-3", attach("lib-3")); err == nil {
		_, err = c.Rebalance(cancelled, 0)
	}
	step("join lib-3: %s", errText(err))
	rebalance()
	put("obj-16")

	_, err = c.DrainLibrary(cancelled, "lib-3")
	step("drain lib-3: %s", errText(err))
	rebalance()
	rebalance()
	getAll()

	// The log as written: every record was fsynced before its op
	// returned, and snapshots are off, so the WAL holds the whole run.
	fmt.Fprintln(&out, "## router log")
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	recovered := t.TempDir()
	for _, w := range wals {
		b, err := os.ReadFile(w)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s %x\n", filepath.Base(w), sha256.Sum256(b))
		if err := os.WriteFile(filepath.Join(recovered, filepath.Base(w)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, st, err := persist.OpenRouter(persist.Options{Dir: recovered, Fingerprint: routerFingerprint})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	js, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "## recovered state\n%s\n", js)
	js, err = json.MarshalIndent(c.Status(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "## status\n%s\n", js)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "history.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(out.String(), "\n"), strings.Split(string(golden), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("history line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("history has %d lines, golden %d", len(gl), len(wl))
	}
}
