package service

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"silica/internal/faults"
	"silica/internal/media"
	"silica/internal/metadata"
	"silica/internal/voxel"
)

// liveRecoveredOps are the fault points TestLiveStateEqualsRecovered
// fails one match at a time; media.write is sampled on top of them.
var liveRecoveredOps = []string{
	faults.OpPersistAppend, faults.OpPersistSync, faults.OpPublishPlatter,
	faults.OpFlushPublish, faults.OpFlushVerify, faults.OpFlushBurn, faults.OpFlushBatch,
}

// mediaWriteSamples is how many media.write matches the test fails.
const mediaWriteSamples = 12

// TestLiveStateEqualsRecovered: whatever a failed write leaves in
// memory is what a crash and a reopen recover. One script runs against a
// durable service: five platter-sized Puts, each flushed, which close a
// 4+2 set and leave a member pending; a small Put, then a Put and a
// Delete of one more object; FailPlatter and RebuildPlatter on bulk0's
// platter; a last flush. A clean run counts each fault point's matches.
// Then each match of each op is failed in turn, with
// mode=error,after=k,count=1, and media.write at mediaWriteSamples
// matches spread evenly over its count (every sector of every burned
// track is one match, and one failed sector scraps its platter wherever
// it lies). After a fault-free Sync the live service and the one a crash
// and a reopen recover must agree on the sets, the pending set, each
// object's latest live version with its extents, and every platter's
// health and placement. The test compares states, not call results: a
// call that failed may have landed either way. Every acknowledged object
// must read back byte-exact after the reopen, every acknowledged delete
// must stay gone, and every information platter holding a live extent
// must be in a set or pending. A set close that registered its set
// before its record, a Put whose record failed after its version was
// registered, a Delete that shredded before its record and a flush that
// marked a version durable before its record all used to diverge here.
func TestLiveStateEqualsRecovered(t *testing.T) {
	counts := map[string]int64{}
	probe := faults.New(1)
	for _, op := range append(slices.Clone(liveRecoveredOps), faults.OpMediaWrite) {
		if err := probe.ArmString(fmt.Sprintf("op=%s,mode=error,after=1000000000", op)); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range runLiveRecovered(t, probe) {
		counts[st.Rule.Op] = st.Matches
	}
	points := 0
	for _, op := range liveRecoveredOps {
		for k := int64(0); k < counts[op]; k++ {
			points++
			rule := fmt.Sprintf("op=%s,mode=error,after=%d,count=1", op, k)
			t.Run(fmt.Sprintf("%s/%d", op, k), func(t *testing.T) {
				t.Parallel()
				runLiveRecovered(t, armed(t, rule))
			})
		}
	}
	if points < 40 {
		t.Fatalf("the clean run matched only %d points outside media.write (%v)", points, counts)
	}
	writes := counts[faults.OpMediaWrite]
	for i := int64(0); i < mediaWriteSamples; i++ {
		k := i * writes / mediaWriteSamples
		rule := fmt.Sprintf("op=%s,mode=error,after=%d,count=1", faults.OpMediaWrite, k)
		t.Run(fmt.Sprintf("%s/%d", faults.OpMediaWrite, k), func(t *testing.T) {
			t.Parallel()
			runLiveRecovered(t, armed(t, rule))
		})
	}
}

func armed(t *testing.T, rule string) *faults.Injector {
	t.Helper()
	inj := faults.New(1)
	if err := inj.ArmString(rule); err != nil {
		t.Fatal(err)
	}
	return inj
}

// runLiveRecovered runs the script under inj, then compares the live
// service with the one a crash and a reopen recover. It returns inj's
// rules as the script left them, matches counted.
func runLiveRecovered(t *testing.T, inj *faults.Injector) []faults.RuleStatus {
	cfg := smallSetConfig()
	cfg.Geom.TracksPerPlatter = 3 // 2 info tracks + 1 large-group red: a platter is cheap
	cfg.Geom.LargeGroupInfoTracks = 2
	cfg.Channel = voxel.CleanChannel()
	cfg.CodecWorkers = 1
	cfg.PersistDir = t.TempDir()
	cfg.Faults = inj
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acked := map[string][]byte{}
	deleted := map[string]bool{}
	put := func(name string, data []byte) {
		delete(acked, name)
		if _, err := s.Put("acct", name, data); err == nil {
			acked[name] = data
		}
	}
	for i := 0; i < 5; i++ {
		put(fmt.Sprintf("bulk%d", i), randBytes(uint64(50+i), int(cfg.Geom.PlatterUserBytes())*3/4))
		_ = s.Flush()
	}
	put("small", randBytes(60, 700))
	put("gone", randBytes(61, 900))
	delete(acked, "gone") // a delete that fails may have landed either way
	if err := s.Delete("acct", "gone"); err == nil {
		deleted["gone"] = true
	}
	if v, err := s.meta.Get(metadata.FileKey{Account: "acct", Name: "bulk0"}); err == nil && len(v.Extents) > 0 {
		if err := s.FailPlatter(v.Extents[0].Platter); err == nil {
			_, _ = s.RebuildPlatter(v.Extents[0].Platter)
		}
	}
	_ = s.Flush()

	rules := inj.Snapshot()
	inj.Clear()
	if err := s.PersistLog().Sync(); err != nil {
		t.Fatal(err)
	}
	live := liveRecoveredView(s)
	r := crashAndReopen(t, s, cfg)
	if got := liveRecoveredView(r); !reflect.DeepEqual(got, live) {
		t.Fatalf("the reopen disagrees with memory:\nmemory %+v\nreopen %+v", live, got)
	}
	for name, want := range acked {
		if got, err := r.Get("acct", name); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("acknowledged %s after the reopen: err=%v, byte-exact=%v", name, err, bytes.Equal(got, want))
		}
	}
	for name := range deleted {
		if _, err := r.Get("acct", name); !errors.Is(err, metadata.ErrNotFound) {
			t.Fatalf("acknowledged delete of %s after the reopen: Get = %v, want not found", name, err)
		}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	placed := map[media.PlatterID]bool{}
	for _, m := range slices.Concat(append(slices.Clone(r.sets), r.pendingSet)...) {
		placed[m] = true
	}
	for _, fd := range r.meta.Export() {
		v, err := r.meta.Get(fd.Key)
		if err != nil {
			continue
		}
		for _, e := range v.Extents {
			if !placed[e.Platter] {
				t.Errorf("%v lies on platter %d, which is in no set and not pending (sets %v, pending %v)", fd.Key, e.Platter, r.sets, r.pendingSet)
			}
		}
	}
	return rules
}

// liveRecoveredState is what TestLiveStateEqualsRecovered compares.
type liveRecoveredState struct {
	Sets    [][]media.PlatterID
	Pending []media.PlatterID
	Objects map[string]string // latest live version, or the lookup's error
	Health  map[media.PlatterID]string
}

func liveRecoveredView(s *Service) liveRecoveredState {
	st := liveRecoveredState{Objects: map[string]string{}, Health: map[media.PlatterID]string{}}
	s.mu.RLock()
	for _, members := range s.sets {
		st.Sets = append(st.Sets, slices.Clone(members))
	}
	st.Pending = slices.Clone(s.pendingSet)
	s.mu.RUnlock()
	for _, name := range []string{"bulk0", "bulk1", "bulk2", "bulk3", "bulk4", "small", "gone"} {
		v, err := s.meta.Get(metadata.FileKey{Account: "acct", Name: name})
		if err != nil {
			st.Objects[name] = "not found"
			continue
		}
		st.Objects[name] = fmt.Sprintf("v%d %v size %d key %q extents %v", v.Version, v.State, v.Size, v.KeyID, v.Extents)
	}
	for _, ph := range s.HealthSnapshot().Platters {
		st.Health[ph.Platter] = fmt.Sprintf("%s set %d pos %d redundancy %v", ph.Health, ph.Set, ph.SetPos, ph.Redundancy)
	}
	return st
}

// TestSnapshotCutsDuringWrites: a snapshot's cut never falls between a
// Put's or a Delete's record and its effect, so writers racing flushes
// that snapshot at every round lose nothing to a crash and a reopen.
// Four writers each put, overwrite and delete their own objects while a
// flusher snapshots after every round; then the reopened service must
// hold every object as the live one does, each acknowledged version
// readable byte-exact and each acknowledged delete gone. Under -race it
// also checks the cut's lock against Put and Delete.
func TestSnapshotCutsDuringWrites(t *testing.T) {
	cfg := smallSetConfig()
	cfg.Channel = voxel.CleanChannel()
	cfg.PersistDir = t.TempDir()
	cfg.PersistSnapshotEvery = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const writers, ops = 4, 80
	acked := make([]map[string][]byte, writers) // name -> latest acknowledged bytes, nil once deleted
	var wg sync.WaitGroup
	stop := make(chan struct{})
	flushed := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				flushed <- s.Flush()
				return
			default:
				if err := s.Flush(); err != nil {
					flushed <- err
					return
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		acked[w] = map[string][]byte{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				name := fmt.Sprintf("w%d-%d", w, i%6)
				if i%4 == 3 {
					if err := s.Delete("acct", name); err == nil {
						acked[w][name] = nil
					}
					continue
				}
				data := randBytes(uint64(w*1000+i), 300+i)
				if _, err := s.Put("acct", name, data); err != nil {
					t.Error(err)
					return
				}
				acked[w][name] = data
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if err := s.PersistLog().Sync(); err != nil {
		t.Fatal(err)
	}
	version := func(s *Service, name string) string {
		v, err := s.meta.Get(metadata.FileKey{Account: "acct", Name: name})
		if err != nil {
			return "not found"
		}
		return fmt.Sprintf("v%d %v key %q extents %v", v.Version, v.State, v.KeyID, v.Extents)
	}
	live := map[string]string{}
	for w := range acked {
		for name := range acked[w] {
			live[name] = version(s, name)
		}
	}
	r := crashAndReopen(t, s, cfg)
	for w := range acked {
		for name, want := range acked[w] {
			if got := version(r, name); got != live[name] {
				t.Errorf("%s: memory %s, reopen %s", name, live[name], got)
			}
			got, err := r.Get("acct", name)
			switch {
			case want == nil && !errors.Is(err, metadata.ErrNotFound):
				t.Errorf("acknowledged delete of %s after the reopen: Get = %v, want not found", name, err)
			case want != nil && (err != nil || !bytes.Equal(got, want)):
				t.Errorf("acknowledged %s after the reopen: err=%v, byte-exact=%v", name, err, bytes.Equal(got, want))
			}
		}
	}
}
