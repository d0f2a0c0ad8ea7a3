package service

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"silica/internal/faults"
	"silica/internal/keystore"
	"silica/internal/layout"
	"silica/internal/media"
	"silica/internal/metadata"
	"silica/internal/sim"
	"silica/internal/staging"
	"silica/internal/voxel"
)

// One round of silica-bench's ingest workload
// (cmd/silica-bench/workloads.go): 80 x 4 KiB + 24 x 16 KiB objects, whose
// ciphertexts take 5 and 17 sectors of TinyGeometry — 808 sectors.
const (
	roundSmall, roundLarge = 80, 24
	smallObject            = 4<<10 + keystore.Overhead
	largeObject            = 16<<10 + keystore.Overhead
	roundUserBytes         = roundSmall*(4<<10) + roundLarge*(16<<10)
)

// stageIngestRound stages one such round as fixed bytes past Put, so what
// the flush burns — and every read-back verdict — is a function of the
// seed.
func stageIngestRound(s *Service, round int) {
	for i := 0; i < roundSmall; i++ {
		stageRaw(s, fmt.Sprintf("r%d-s%02d", round, i), randBytes(uint64(round*1000+i), smallObject))
	}
	for i := 0; i < roundLarge; i++ {
		stageRaw(s, fmt.Sprintf("r%d-l%02d", round, i), randBytes(uint64(round*1000+500+i), largeObject))
	}
}

// requireReadable reads a stageRaw'd file back from glass.
func requireReadable(t *testing.T, s *Service, name string, want []byte) {
	t.Helper()
	v, err := s.meta.Get(metadata.FileKey{Account: "acct", Name: name})
	if err != nil {
		t.Fatal(err)
	}
	if v.State != metadata.Durable {
		t.Fatalf("%s is %v, want durable", name, v.State)
	}
	got, err := s.readExtents(context.Background(), v, s.readRNG(), nil)
	if err != nil || !bytes.Equal(got[:len(want)], want) {
		t.Fatalf("%s read back from glass: err=%v", name, err)
	}
}

// TestIngestRoundBurnsFourPlusTwo pins the platter arithmetic the
// benchmark's ingest round rests on: its 808 sectors are planned in one
// pass into four information platters, which close exactly one 4+2 set.
// Planned a platter's worth of file bytes at a time, the same round used
// to burn seven information platters and close 1.75 sets.
func TestIngestRoundBurnsFourPlusTwo(t *testing.T) {
	s := newService(t)
	for round := 0; round < 2; round++ {
		stageIngestRound(s, round)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.PlattersFaulted != 0 {
			t.Fatalf("round %d: the seeded channel scrapped %d platters", round, st.PlattersFaulted)
		}
		if want := round + 1; st.PlattersWritten != 4*want || st.RedundancyPlatters != 2*want || st.SetsCompleted != want {
			t.Fatalf("round %d: %d information + %d redundancy platters in %d sets, want %d + %d in %d",
				round, st.PlattersWritten, st.RedundancyPlatters, st.SetsCompleted, 4*want, 2*want, want)
		}
	}
	if s.StagedBytes() != 0 || len(s.pendingSet) != 0 {
		t.Fatalf("%d bytes staged, %d platters pending after two whole sets", s.StagedBytes(), len(s.pendingSet))
	}
	requireReadable(t, s, "r1-l23", randBytes(1523, largeObject))
}

// TestFlushFillsEveryPlatterButTheLast is the fill invariant over seeded
// mixes of sizes: a flush plans its whole ordered backlog in one
// AssignFiles pass, so every information platter it publishes but the
// last was closed because the next placement could not go on it — it did
// not fit, or it is a later shard of a file the platter already holds
// (shards go to distinct platters). A file deleted while staged takes no
// glass.
func TestFlushFillsEveryPlatterButTheLast(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := DefaultConfig()
		cfg.Channel = voxel.CleanChannel() // verification is not under test: scrap nothing
		cfg.maxShardSectors = 60
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(seed)
		files := map[string][]byte{}
		stage := func(name string, size int) {
			files[name] = randBytes(rng.Uint64(), size)
			stageRaw(s, name, files[name])
		}
		for i, n := 0, 30+rng.Intn(30); i < n; i++ {
			if rng.Intn(4) == 0 {
				stage(fmt.Sprintf("f%02d", i), largeObject)
			} else {
				stage(fmt.Sprintf("f%02d", i), smallObject)
			}
		}
		stage("f10-sharded", 150*cfg.Geom.SectorPayloadBytes-7) // 60 + 60 + 30 sectors
		if err := s.Delete("acct", "f05"); err != nil {
			t.Fatal(err)
		}
		delete(files, "f05")

		var backlog []*staging.File
		for _, f := range s.tier.NextBatch() {
			if f.Key.Name != "f05" {
				backlog = append(backlog, f)
			}
		}
		plans := layout.AssignFiles(backlog, cfg.Geom, s.effectiveShardCap())
		first := s.allocPlatterID() + 1 // information ids are allocated in plan order, before any set closes
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		var platters []int // used sectors of each information platter, in id order
		for _, p := range s.ListPlatters() {
			if !p.Redundancy {
				platters = append(platters, p.UsedSectors)
			}
		}
		if len(platters) != len(plans) || len(plans) < 3 {
			t.Fatalf("seed %d: %d information platters for %d plans of the whole backlog (want at least 3)",
				seed, len(platters), len(plans))
		}

		// What landed where, from the extents the flush recorded.
		type placed struct {
			name string
			metadata.Extent
		}
		onPlatter := map[media.PlatterID][]placed{}
		for name, want := range files {
			requireReadable(t, s, name, want)
			v, _ := s.meta.Get(metadata.FileKey{Account: "acct", Name: name})
			for _, e := range v.Extents {
				onPlatter[e.Platter] = append(onPlatter[e.Platter], placed{name, e})
			}
		}
		capacity := cfg.Geom.InfoTracksPerPlatter() * cfg.Geom.InfoSectorsPerTrack
		for i, used := range platters {
			id := first + media.PlatterID(i)
			sort.Slice(onPlatter[id], func(a, b int) bool { return onPlatter[id][a].FirstSector < onPlatter[id][b].FirstSector })
			if used != plans[i].SectorsUsed {
				t.Fatalf("seed %d: platter %d holds %d sectors, its plan %d", seed, id, used, plans[i].SectorsUsed)
			}
		}
		for i, used := range platters[:len(platters)-1] {
			next := onPlatter[first+media.PlatterID(i+1)][0]
			holdsEarlierShard := false
			for _, e := range onPlatter[first+media.PlatterID(i)] {
				holdsEarlierShard = holdsEarlierShard || (e.name == next.name && next.Shard > 0)
			}
			if used+next.SectorCount <= capacity && !holdsEarlierShard {
				t.Fatalf("seed %d: platter %d closed at %d of %d sectors though %s shard %d (%d sectors) fits",
					seed, i, used, capacity, next.name, next.Shard, next.SectorCount)
			}
		}
		if _, err := s.meta.Get(metadata.FileKey{Account: "acct", Name: "f05"}); err == nil {
			t.Fatalf("seed %d: the file deleted while staged is back", seed)
		}
		if s.StagedBytes() != 0 {
			t.Fatalf("seed %d: %d bytes still staged", seed, s.StagedBytes())
		}
	}
}

// TestFailedSetCloseIsRetriedUnderTheSameIndex: a set close that errors
// leaves its members pending, and the next flush closes that set — once,
// under the index the members already carry — before anything joins the
// next one. The members used to be dropped from the pending list first,
// so after a failed close they kept an index the next completed set took
// as well.
func TestFailedSetCloseIsRetriedUnderTheSameIndex(t *testing.T) {
	cfg := smallSetConfig()
	cfg.Faults = faults.New(1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	flushOne := func(i int) error {
		name := fmt.Sprintf("bulk%d", i)
		files[name] = randBytes(uint64(50+i), int(cfg.Geom.PlatterUserBytes())*3/4)
		stageRaw(s, name, files[name])
		return s.Flush()
	}
	for i := 0; i < cfg.SetInfo-1; i++ {
		if err := flushOne(i); err != nil {
			t.Fatal(err)
		}
	}
	// The closing flush burns its information platter on the next id and
	// then tries the first redundancy platter on each of the four after
	// it: fault every one of those burns.
	s.mu.RLock()
	info := s.nextPlatter
	s.mu.RUnlock()
	for id := info + 1; id <= info+4; id++ {
		if err := cfg.Faults.ArmString(fmt.Sprintf("op=flush.burn,platter=%d,mode=error", id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := flushOne(cfg.SetInfo - 1); err == nil {
		t.Fatal("flush closed a set whose redundancy burns all faulted")
	}
	if st := s.Stats(); st.SetsCompleted != 0 || st.RedundancyPlatters != 0 || st.PlattersFaulted != 4 {
		t.Fatalf("after the failed close: %d sets, %d redundancy platters, %d scrapped; want 0, 0, 4",
			st.SetsCompleted, st.RedundancyPlatters, st.PlattersFaulted)
	}
	if len(s.pendingSet) != cfg.SetInfo {
		t.Fatalf("%d platters pending after the failed close, want all %d members", len(s.pendingSet), cfg.SetInfo)
	}

	// The retry closes set 0; the file the failed flush never recorded is
	// planned again and opens set 1, which three more platters complete.
	for i := cfg.SetInfo; i < 2*cfg.SetInfo-1; i++ {
		if err := flushOne(i); err != nil {
			t.Fatalf("flush %d after the failed close: %v", i, err)
		}
		if i == cfg.SetInfo {
			if st := s.Stats(); st.SetsCompleted != 1 || st.RedundancyPlatters != cfg.SetRed {
				t.Fatalf("retry closed %d sets with %d redundancy platters, want 1 with %d",
					st.SetsCompleted, st.RedundancyPlatters, cfg.SetRed)
			}
		}
	}
	s.mu.RLock()
	if len(s.sets) != 2 {
		t.Fatalf("%d sets completed, want 2", len(s.sets))
	}
	inSets := 0
	for idx, members := range s.sets {
		for pos, m := range members {
			inSets++
			if pi := s.platters[m]; pi.set != idx || pi.setPos != pos {
				t.Fatalf("platter %d is member %d of set %d but carries set %d position %d", m, pos, idx, pi.set, pi.setPos)
			}
		}
	}
	if inSets != len(s.platters) {
		t.Fatalf("%d platters in the index, %d of them members of a set", len(s.platters), inSets)
	}
	lost := s.sets[0][0]
	s.mu.RUnlock()
	if err := s.FailPlatter(lost); err != nil {
		t.Fatal(err)
	}
	for name, want := range files {
		requireReadable(t, s, name, want)
	}
	if st := s.Stats(); st.PlatterRecovers == 0 {
		t.Fatalf("no read of failed platter %d went through set 0's redundancy", lost)
	}
}

// TestSetClosesFromGlassAcrossRestart: a pending set's members keep no
// payload cache across a restart, so the set close that follows reads
// them back from their glass. Either way the set closes, a close cut
// short by a clean restart with two members pending and one whose
// redundancy burns all faulted before the restart, its redundancy
// protects the members burned before it: with one of them failed, every
// object on it reads back byte-exact through set recovery.
func TestSetClosesFromGlassAcrossRestart(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		t.Run(map[bool]string{false: "clean", true: "faulted close"}[faulted], func(t *testing.T) {
			cfg := smallSetConfig()
			cfg.PersistDir = t.TempDir()
			cfg.Faults = faults.New(1)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			files := map[string][]byte{}
			flushOne := func(s *Service, i int) error {
				name := fmt.Sprintf("bulk%d", i)
				files[name] = randBytes(uint64(50+i), int(cfg.Geom.PlatterUserBytes())*3/4)
				if _, err := s.Put("acct", name, files[name]); err != nil {
					t.Fatal(err)
				}
				return s.Flush()
			}
			before := 2 // members burned before the restart
			if faulted {
				before = cfg.SetInfo
			}
			for i := 0; i < before-1; i++ {
				if err := flushOne(s, i); err != nil {
					t.Fatal(err)
				}
			}
			if faulted {
				// As in TestFailedSetCloseIsRetriedUnderTheSameIndex: fault
				// every burn of the first redundancy platter.
				s.mu.RLock()
				info := s.nextPlatter
				s.mu.RUnlock()
				for id := info + 1; id <= info+4; id++ {
					if err := cfg.Faults.ArmString(fmt.Sprintf("op=flush.burn,platter=%d,mode=error", id)); err != nil {
						t.Fatal(err)
					}
				}
				if err := flushOne(s, before-1); err == nil {
					t.Fatal("flush closed a set whose redundancy burns all faulted")
				}
			} else if err := flushOne(s, before-1); err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.SetsCompleted != 0 || len(s.pendingSet) != before {
				t.Fatalf("before the restart: %d sets, %d pending; want 0 and %d", st.SetsCompleted, len(s.pendingSet), before)
			}
			lost := s.pendingSet[0]
			if err := s.ClosePersist(); err != nil {
				t.Fatal(err)
			}

			cfg.Faults = nil
			if s, err = New(cfg); err != nil {
				t.Fatal(err)
			}
			defer func() { _ = s.ClosePersist() }()
			for i := before; i < cfg.SetInfo; i++ {
				if err := flushOne(s, i); err != nil {
					t.Fatal(err)
				}
			}
			if st := s.Stats(); st.SetsCompleted != 1 || st.RedundancyPlatters != cfg.SetRed {
				t.Fatalf("%d sets with %d redundancy platters, want 1 with %d", st.SetsCompleted, st.RedundancyPlatters, cfg.SetRed)
			}
			if err := s.FailPlatter(lost); err != nil {
				t.Fatal(err)
			}
			onLost := 0
			for name, want := range files {
				// The faulted flush recorded no extents: its file is
				// still staged.
				if v, err := s.meta.Get(metadata.FileKey{Account: "acct", Name: name}); err == nil && len(v.Extents) > 0 && v.Extents[0].Platter == lost {
					onLost++
				}
				if got, err := s.Get("acct", name); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s with platter %d failed: err=%v", name, lost, err)
				}
			}
			if st := s.Stats(); onLost == 0 || st.PlatterRecovers == 0 {
				t.Fatalf("%d objects on platter %d, %d reads through set recovery; want some of each", onLost, lost, st.PlatterRecovers)
			}
		})
	}
}

// TestStagedObjectAcrossReleasingFlush: a Get that finds the version
// Staged in metadata but already released from the tier re-reads the
// metadata and follows it to glass; a Delete racing the same flush stays
// deleted. Every round of a flush now releases its whole backlog at once,
// so the window is hit by every object staged when the flush starts.
func TestStagedObjectAcrossReleasingFlush(t *testing.T) {
	s := newService(t)
	const objects = 24
	data := make([][]byte, objects)
	for i := range data {
		data[i] = randBytes(uint64(700+i), 3000)
		if _, err := s.Put("acct", fmt.Sprintf("obj%02d", i), data[i]); err != nil {
			t.Fatal(err)
		}
	}
	flushed := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A worker watches for the flush's end only once it has
			// visited each of its objects, so every doomed object has
			// been deleted by the final check however soon the flush
			// ends.
			for n, i := 0, w; ; n, i = n+1, (i+3)%objects {
				name := fmt.Sprintf("obj%02d", i)
				if i%8 == 7 {
					// One Delete per doomed object wins; the rest, and every
					// Get after it, must see it gone.
					_ = s.Delete("acct", name)
					if _, err := s.Get("acct", name); err == nil {
						t.Errorf("%s readable after its delete", name)
						return
					}
				} else if got, err := s.Get("acct", name); err != nil || !bytes.Equal(got, data[i]) {
					t.Errorf("%s across the flush: err=%v", name, err)
					return
				}
				if n+1 < objects/3 {
					continue
				}
				select {
				case <-flushed:
					return
				default:
				}
			}
		}(w)
	}
	if err := s.Flush(); err != nil {
		t.Error(err)
	}
	close(flushed)
	wg.Wait()
	if s.StagedBytes() != 0 {
		t.Fatalf("%d bytes staged after the flush", s.StagedBytes())
	}
	for i := range data {
		got, err := s.Get("acct", fmt.Sprintf("obj%02d", i))
		if i%8 == 7 {
			if err == nil {
				t.Fatalf("obj%02d readable after its delete", i)
			}
		} else if err != nil || !bytes.Equal(got, data[i]) {
			t.Fatalf("obj%02d from glass: err=%v", i, err)
		}
	}
}
