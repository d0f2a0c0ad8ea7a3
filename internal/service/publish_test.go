package service

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"silica/internal/faults"
	"silica/internal/media"
	"silica/internal/metadata"
	"silica/internal/voxel"
)

// requireBlobsMatchIndex fails unless the persist directory holds a blob
// for each platter in s's index and for nothing else.
func requireBlobsMatchIndex(t *testing.T, s *Service, when string) {
	t.Helper()
	dir := s.cfg.PersistDir
	names, err := filepath.Glob(filepath.Join(dir, "platter-*.plt"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	s.mu.RLock()
	for id := range s.platters {
		want = append(want, filepath.Join(dir, fmt.Sprintf("platter-%d.plt", id)))
	}
	s.mu.RUnlock()
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("%s: blobs %v on disk, want the published platters' %v", when, names, want)
	}
}

// crashAndReopen freezes s's log as a kill would, with no final
// snapshot, and recovers cfg's persist directory in a new service.
func crashAndReopen(t *testing.T, s *Service, cfg Config) *Service {
	t.Helper()
	s.PersistLog().Crash()
	_ = s.ClosePersist()
	cfg.Faults = nil
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.ClosePersist() })
	return s
}

// TestFailedPublishRecordJoinsNoSet: a platter is durable before it is
// visible, so one whose publish record fails to append never enters the
// index or a set. The first of six one-file flushes fails its first
// platter's record; the next five close a set and leave members pending.
// After a crash and a reopen, every member of every recovered set, and
// of the pending set, has a publish record and a blob, and every object
// reads back byte-exact. The failed platter used to stay in the pending
// set, so the set closed over a member recovery knows nothing of.
func TestFailedPublishRecordJoinsNoSet(t *testing.T) {
	cfg := smallSetConfig()
	cfg.Channel = voxel.CleanChannel()
	cfg.PersistDir = t.TempDir()
	cfg.Faults = faults.New(1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("bulk%d", i)
		files[name] = randBytes(uint64(50+i), int(cfg.Geom.PlatterUserBytes())*3/4)
		if _, err := s.Put("acct", name, files[name]); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			// The flush's first append is its first platter's publish record.
			if err := cfg.Faults.ArmString("op=persist.append,mode=error,count=1"); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); (err != nil) != (i == 0) {
			t.Fatalf("flush %d returned %v, want an error only from the first", i, err)
		}
	}
	requireBlobsMatchIndex(t, s, "after six flushes")

	s = crashAndReopen(t, s, cfg)
	s.mu.RLock()
	sets, pending := len(s.sets), len(s.pendingSet)
	members := slices.Concat(append(slices.Clone(s.sets), s.pendingSet)...)
	var missing []media.PlatterID
	for _, m := range members {
		_, err := os.Stat(filepath.Join(cfg.PersistDir, fmt.Sprintf("platter-%d.plt", m)))
		if s.platters[m] == nil || err != nil {
			missing = append(missing, m)
		}
	}
	s.mu.RUnlock()
	if sets != 1 || pending == 0 {
		t.Fatalf("recovered %d sets and %d pending members, want 1 and some", sets, pending)
	}
	if len(missing) > 0 {
		t.Fatalf("recovered set members %v have no publish record or no blob", missing)
	}
	for name, want := range files {
		if got, err := s.Get("acct", name); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after the reopen: err=%v, byte-exact=%v", name, err, bytes.Equal(got, want))
		}
	}
}

// TestFailedRebuildPublishChangesNothing: a rebuilt platter is durable
// before it replaces anything, and its publish record is the whole
// rebuild. Two appends fail in turn: the replacement's publish record,
// and the first append after it. The first fails the call; the second
// lands after the rebuild is durable, so the call succeeds. Either way
// the in-memory set and extents are what a crash and a reopen recover, and
// no information platter the reopen knows is left outside every set
// unless a replacement displaced it. A call that fails changes nothing
// and leaves no replacement blob, and a retry succeeds. After the last
// reopen every object reads back byte-exact from the member its set
// lists. A failed publish record used to leave its replacement swapped
// into the set; a failed remap record after it left the swap and the
// remap in memory only, and the reopen put the old member back.
func TestFailedRebuildPublishChangesNothing(t *testing.T) {
	for _, tc := range []struct {
		name, rule string
		wantErr    bool
	}{
		{"publish-record", "op=persist.append,mode=error,count=1", true},
		{"append-after-publish", "op=persist.append,mode=error,after=1,count=1", false},
	} {
		t.Run(tc.name, func(t *testing.T) { testFailedRebuildAppend(t, tc.rule, tc.wantErr) })
	}
}

func testFailedRebuildAppend(t *testing.T, rule string, wantErr bool) {
	cfg := smallSetConfig()
	cfg.Channel = voxel.CleanChannel()
	cfg.PersistDir = t.TempDir()
	cfg.Faults = faults.New(1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	files := fillSet(t, s, cfg)
	old := platterOf(t, s, "acct", "bulk0")
	if err := s.FailPlatter(old); err != nil {
		t.Fatal(err)
	}
	type state struct {
		platters []media.PlatterID
		sets     [][]media.PlatterID
		extents  map[string][]metadata.Extent
	}
	snapshot := func(s *Service) state {
		var st state
		s.mu.RLock()
		for id := range s.platters {
			st.platters = append(st.platters, id)
		}
		for _, members := range s.sets {
			st.sets = append(st.sets, slices.Clone(members))
		}
		s.mu.RUnlock()
		slices.Sort(st.platters)
		st.extents = map[string][]metadata.Extent{}
		for name := range files {
			v, err := s.meta.Get(metadata.FileKey{Account: "acct", Name: name})
			if err != nil {
				t.Fatal(err)
			}
			st.extents[name] = slices.Clone(v.Extents)
		}
		return st
	}
	before := snapshot(s)
	if err := cfg.Faults.ArmString(rule); err != nil {
		t.Fatal(err)
	}
	_, rebuildErr := s.RebuildPlatter(old)
	if (rebuildErr != nil) != wantErr {
		t.Fatalf("RebuildPlatter = %v, want an error: %v", rebuildErr, wantErr)
	}
	if rebuildErr != nil {
		if after := snapshot(s); !reflect.DeepEqual(after, before) {
			t.Fatalf("a failed rebuild changed the service:\nbefore %+v\nafter  %+v", before, after)
		}
		requireBlobsMatchIndex(t, s, "after the failed rebuild")
	}
	live := snapshot(s)
	s = crashAndReopen(t, s, cfg)
	if got := snapshot(s); !reflect.DeepEqual(got.sets, live.sets) || !reflect.DeepEqual(got.extents, live.extents) {
		t.Fatalf("rebuild returned %v; the reopen disagrees with memory:\nmemory %+v\nreopen %+v", rebuildErr, live, got)
	}
	s.mu.RLock()
	placed := map[media.PlatterID]bool{}
	for _, m := range slices.Concat(append(slices.Clone(s.sets), s.pendingSet)...) {
		placed[m] = true
	}
	for id, pi := range s.platters {
		displaced := pi.set < len(s.sets) && s.sets[pi.set][pi.setPos] != id && pi.rec.Unavailable()
		if !pi.isRedundancy && !placed[id] && !displaced {
			t.Errorf("information platter %d is in no set and not pending (sets %v, pending %v)", id, s.sets, s.pendingSet)
		}
	}
	s.mu.RUnlock()
	if rebuildErr != nil {
		if _, err := s.RebuildPlatter(old); err != nil {
			t.Fatal(err)
		}
		s = crashAndReopen(t, s, cfg)
	}

	s.mu.RLock()
	for name := range files {
		v, err := s.meta.Get(metadata.FileKey{Account: "acct", Name: name})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range v.Extents {
			pi := s.platters[e.Platter]
			if pi == nil || pi.set < 0 || pi.set >= len(s.sets) || s.sets[pi.set][pi.setPos] != e.Platter || pi.rec.Unavailable() {
				t.Fatalf("%s lies on platter %d, which is not an available member its set lists (sets %v)", name, e.Platter, s.sets)
			}
		}
	}
	s.mu.RUnlock()
	for name, want := range files {
		if got, err := s.Get("acct", name); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after the reopen: err=%v, byte-exact=%v", name, err, bytes.Equal(got, want))
		}
	}
	if st := s.Stats(); st.PlatterRecovers != 0 {
		t.Fatalf("%d reads recovered through the set: an object's extents name no serving member", st.PlatterRecovers)
	}
}
