package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"silica/internal/obs"
)

func openRouterT(t *testing.T, dir string) (*Log, *RouterState) {
	t.Helper()
	l, st, err := OpenRouter(Options{Dir: dir, Fingerprint: "ring-test"})
	if err != nil {
		t.Fatal(err)
	}
	return l, st
}

// reopenRouterTruncated recovers dir and checks the truncation report
// (see checkTruncatedReported) before handing the state back.
func reopenRouterTruncated(t *testing.T, dir string, want bool) *RouterState {
	t.Helper()
	reg := obs.NewRegistry()
	l, st, err := OpenRouter(Options{Dir: dir, Fingerprint: "ring-test", Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	checkTruncatedReported(t, l, reg, want)
	return st
}

func appendAllRouter(t *testing.T, l *Log, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestRouterRoundTrip drives every router record type through append,
// close, and recovery, checking the rebuilt state field by field.
func TestRouterRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, st := openRouterT(t, dir)
	if st.HasConfig || len(st.Members) != 0 || len(st.Entries) != 0 {
		t.Fatalf("fresh dir not empty: %+v", st)
	}
	appendAllRouter(t, l,
		&RecRingConfig{Seed: 42, VNodes: 96},
		&RecMember{Name: "lib-0", Alive: true, Epoch: 0},
		&RecMember{Name: "lib-1", Alive: true, Epoch: 0},
		&RecMember{Name: "lib-2", Alive: true, Epoch: 0},
		&RecDirPlace{Account: "a", Name: "x", Primary: "lib-0", Replica: "lib-1", Version: 1, Size: 100},
		&RecDirPlace{Account: "a", Name: "y", Primary: "lib-1", Replica: "lib-2", Version: 1, Size: 200},
		&RecMember{Name: "lib-1", Alive: false, Epoch: 0},                                                           // kill
		&RecMember{Name: "lib-1", Alive: true, Epoch: 1},                                                            // rebuild
		&RecDirPlace{Account: "a", Name: "x", Primary: "lib-0", Replica: "lib-1", REpoch: 1, Version: 2, Size: 150}, // re-replicate
		&RecDirTombstone{Account: "a", Name: "y"},
		&RecMember{Name: "lib-3", Alive: true, Epoch: 0},
		&RecMemberRemove{Name: "lib-3"}, // drain
	)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	st = reopenRouterTruncated(t, dir, false)
	if !st.HasConfig || st.Seed != 42 || st.VNodes != 96 {
		t.Fatalf("ring config: %+v", st)
	}
	wantMembers := []RouterMember{
		{Name: "lib-0", Alive: true, Epoch: 0},
		{Name: "lib-1", Alive: true, Epoch: 1},
		{Name: "lib-2", Alive: true, Epoch: 0},
	}
	if !reflect.DeepEqual(st.Members, wantMembers) {
		t.Fatalf("members: %+v, want %+v", st.Members, wantMembers)
	}
	wantEntries := []RouterEntry{
		{RecDirPlace: RecDirPlace{Account: "a", Name: "x", Primary: "lib-0", Replica: "lib-1", REpoch: 1, Version: 2, Size: 150}},
		{RecDirPlace: RecDirPlace{Account: "a", Name: "y", Primary: "lib-1", Replica: "lib-2", Version: 1, Size: 200}, Deleting: true},
	}
	if !reflect.DeepEqual(st.Entries, wantEntries) {
		t.Fatalf("entries: %+v, want %+v", st.Entries, wantEntries)
	}
	if st.Truncated {
		t.Fatal("clean shutdown reported truncated")
	}
}

// TestRouterDeleteDropsEntry checks the full delete lifecycle:
// tombstone then delete removes the row; replaying both over a
// snapshot that already saw them is a no-op (idempotence).
func TestRouterDeleteDropsEntry(t *testing.T) {
	dir := t.TempDir()
	l, _ := openRouterT(t, dir)
	appendAllRouter(t, l,
		&RecRingConfig{Seed: 1, VNodes: 8},
		&RecDirPlace{Account: "a", Name: "k", Primary: "p", Replica: "r", Version: 1, Size: 9},
		&RecDirTombstone{Account: "a", Name: "k"},
		&RecDirDelete{Account: "a", Name: "k"},
	)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, st := openRouterT(t, dir)
	if len(st.Entries) != 0 {
		t.Fatalf("deleted entry survived recovery: %+v", st.Entries)
	}
	// Tombstone for a missing entry must be a harmless no-op on replay.
	appendAllRouter(t, l2, &RecDirTombstone{Account: "a", Name: "k"})
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, st = openRouterT(t, dir)
	if len(st.Entries) != 0 {
		t.Fatalf("stray tombstone resurrected an entry: %+v", st.Entries)
	}
}

// TestRouterSnapshotGC checks that committing a router snapshot
// collapses history: recovery from the snapshot alone (all WAL files
// GC'd) rebuilds the identical state.
func TestRouterSnapshotGC(t *testing.T) {
	dir := t.TempDir()
	l, _ := openRouterT(t, dir)
	var recs []Record
	recs = append(recs, &RecRingConfig{Seed: 7, VNodes: 16})
	for i := 0; i < 50; i++ {
		recs = append(recs, &RecDirPlace{
			Account: "acct", Name: fmt.Sprintf("o-%02d", i),
			Primary: "lib-0", Replica: "lib-1", Version: 1, Size: int64(i),
		})
	}
	appendAllRouter(t, l, recs...)

	cut, err := l.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Export: in real use the cluster exports under its own lock; here we
	// recover once to get a state and commit that.
	st := &RouterState{Seed: 7, VNodes: 16, HasConfig: true}
	for i := 0; i < 50; i++ {
		st.Entries = append(st.Entries, RouterEntry{RecDirPlace: RecDirPlace{
			Account: "acct", Name: fmt.Sprintf("o-%02d", i),
			Primary: "lib-0", Replica: "lib-1", Version: 1, Size: int64(i),
		}})
	}
	if err := l.CommitRouterSnapshot(cut, st); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	listing, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(listing.snaps) != 1 {
		t.Fatalf("%d snapshots after GC, want 1", len(listing.snaps))
	}
	for _, start := range listing.wals {
		if start <= cut {
			t.Fatalf("WAL wal-%016x not GC'd (cut %d)", start, cut)
		}
	}

	_, got := openRouterT(t, dir)
	if len(got.Entries) != 50 || !got.HasConfig || got.Seed != 7 {
		t.Fatalf("post-GC recovery: %d entries, config=%v seed=%d", len(got.Entries), got.HasConfig, got.Seed)
	}
}

// TestRouterTornTail crashes the log mid-stream (Crash drops buffered
// unsynced frames) and verifies recovery keeps exactly the synced
// prefix.
func TestRouterTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := openRouterT(t, dir)
	appendAllRouter(t, l,
		&RecRingConfig{Seed: 3, VNodes: 4},
		&RecDirPlace{Account: "a", Name: "durable", Primary: "p", Replica: "r", Version: 1, Size: 1},
	)
	// Unsynced: buffered only, then frozen — must not survive.
	if _, err := l.Append(&RecDirPlace{Account: "a", Name: "lost", Primary: "p", Replica: "r", Version: 1, Size: 2}); err != nil {
		t.Fatal(err)
	}
	l.Crash()
	if _, err := l.Append(&RecDirDelete{Account: "a", Name: "durable"}); err != ErrCrashed {
		t.Fatalf("append after crash: %v, want ErrCrashed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A frame header the crash cut short.
	listing, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walName(listing.wals[len(listing.wals)-1])), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x55, 0x66, 0x77})
	f.Close()

	st := reopenRouterTruncated(t, dir, true)
	if len(st.Entries) != 1 || st.Entries[0].Name != "durable" {
		t.Fatalf("recovered entries: %+v, want only 'durable'", st.Entries)
	}
}

// TestRouterCorruptFrame flips a byte inside the WAL tail and checks
// replay stops at the damage without losing the intact prefix.
func TestRouterCorruptFrame(t *testing.T) {
	dir := t.TempDir()
	l, _ := openRouterT(t, dir)
	appendAllRouter(t, l,
		&RecRingConfig{Seed: 9, VNodes: 4},
		&RecDirPlace{Account: "a", Name: "ok", Primary: "p", Replica: "r", Version: 1, Size: 5},
		&RecDirPlace{Account: "a", Name: "damaged", Primary: "p", Replica: "r", Version: 1, Size: 6},
	)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	listing, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The live WAL holds all three records (post-recovery snapshot GC'd
	// its predecessors at open, so the newest WAL is the one to damage).
	path := filepath.Join(dir, walName(listing.wals[len(listing.wals)-1]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xFF // corrupt the last frame's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st := reopenRouterTruncated(t, dir, true)
	if !st.Truncated {
		t.Fatal("corrupt tail not reported as truncated")
	}
	if len(st.Entries) != 1 || st.Entries[0].Name != "ok" {
		t.Fatalf("entries after corrupt tail: %+v, want only 'ok'", st.Entries)
	}
}

// TestRouterFingerprintMismatch: a directory written under one ring
// fingerprint refuses to open under another, instead of silently
// misrouting every key.
func TestRouterFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	l, _ := openRouterT(t, dir)
	appendAllRouter(t, l, &RecRingConfig{Seed: 1, VNodes: 2})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenRouter(Options{Dir: dir, Fingerprint: "other-ring"}); err == nil {
		t.Fatal("fingerprint mismatch did not refuse to open")
	}
}

// TestRouterServiceFormatsDisjoint: a service directory refuses to
// open as a router directory (and vice versa) — the snapshot magics
// and fingerprints differ, so neither can silently decode the other.
func TestRouterServiceFormatsDisjoint(t *testing.T) {
	dir := t.TempDir()
	l, _ := openRouterT(t, dir)
	appendAllRouter(t, l, &RecRingConfig{Seed: 1, VNodes: 2})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir, Fingerprint: "ring-test"}); err == nil {
		t.Fatal("service Open accepted a router directory")
	}
}
