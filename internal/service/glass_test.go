package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"silica/internal/faults"
	"silica/internal/media"
	"silica/internal/metadata"
	"silica/internal/repair"
	"silica/internal/sim"
	"silica/internal/voxel"
)

// heapAfterGC reports the live heap once two collections have run: the
// second frees what the first moved to sync.Pool victim caches.
func heapAfterGC() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// flushRounds stages and flushes ingest rounds first, first+1, ... of
// silica-bench's shape into s.
func flushRounds(t *testing.T, s *Service, first, n int) {
	t.Helper()
	for r := first; r < first+n; r++ {
		stageIngestRound(s, r)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFlushLeavesNoGlassOnTheHeap: with a persist directory a platter's
// glass is its blob file from the burn's first sector on, so the live
// heap does not grow with the glass flushed. The first round fills the
// codec scratch and the set-redundancy slab; over the next three, the
// heap may grow by at most 0.5 B per user byte. Holding every platter's
// packed slabs, it grew by about 3.4.
func TestFlushLeavesNoGlassOnTheHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	cfg := DefaultConfig()
	cfg.PersistDir = t.TempDir()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.ClosePersist() }()
	flushRounds(t, s, 0, 1)
	before := heapAfterGC()
	const rounds = 3
	flushRounds(t, s, 1, rounds)
	grown := heapAfterGC() - before
	if st := s.Stats(); st.SetsCompleted != rounds+1 || st.PlattersFaulted != 0 {
		t.Fatalf("%d rounds closed %d sets (%d platters scrapped), want %d and none", rounds+1, st.SetsCompleted, st.PlattersFaulted, rounds+1)
	}
	perByte := float64(grown) / (rounds * roundUserBytes)
	t.Logf("%d ingest rounds flushed: the live heap grew %d B, %.3f B per user byte", rounds, grown, perByte)
	if perByte > 0.5 {
		t.Errorf("the live heap grew %.3f B per user byte flushed, want at most 0.5", perByte)
	}
}

// TestRecoveryLoadsNoGlass: recovering a persist directory opens and
// indexes each platter's blob instead of loading its sectors, so a
// recovered service holds at most 0.5 B of heap per user byte stored
// beyond one recovered from an empty directory. Loading and packing
// every blob, recovery held about 3.4.
func TestRecoveryLoadsNoGlass(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	cfg := DefaultConfig()
	cfg.PersistDir = t.TempDir()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	flushRounds(t, s, 0, rounds)
	if err := s.ClosePersist(); err != nil {
		t.Fatal(err)
	}
	s = nil

	empty := cfg
	empty.PersistDir = t.TempDir()
	e, err := New(empty)
	if err != nil {
		t.Fatal(err)
	}
	base := heapAfterGC()
	if err := e.ClosePersist(); err != nil {
		t.Fatal(err)
	}
	e = nil
	if s, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.ClosePersist() }()
	held := heapAfterGC() - base
	if st := s.Stats(); st.SetsCompleted != rounds {
		t.Fatalf("recovered %d sets, want %d", st.SetsCompleted, rounds)
	}
	perByte := float64(held) / (rounds * roundUserBytes)
	t.Logf("recovered %d ingest rounds: %d B of heap beyond an empty directory's, %.3f B per user byte", rounds, held, perByte)
	if perByte > 0.5 {
		t.Errorf("recovery holds %.3f B of heap per user byte stored, want at most 0.5", perByte)
	}
	requireReadable(t, s, "r2-l23", randBytes(2*1000+500+roundLarge-1, largeObject))
}

// TestRecoveryAllocations: reopening a persist directory reads each
// blob's header and nothing else of it. A blob holds no payload cache to
// decode or skip, and no sector is read until something asks for it.
// Three closed ingest sets are reopened, and the reopen may allocate at
// most 0.81 B per user byte stored: on a 2-CPU host, 5 runs each at -cpu
// 1, 2 and 8 measured 0.723 to 0.729, and the bound is that maximum plus
// 10 %, rounded up. Decoding every blob's payload cache and dropping it
// at once, it allocated 2.61; streaming each blob through its CRC and
// skipping the cache, 0.725 to 0.731.
func TestRecoveryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := DefaultConfig()
	cfg.PersistDir = t.TempDir()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	flushRounds(t, s, 0, rounds)
	if err := s.ClosePersist(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err = New(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.ClosePersist() }()
	if st := s.Stats(); st.SetsCompleted != rounds {
		t.Fatalf("recovered %d sets, want %d", st.SetsCompleted, rounds)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	perByte := float64(alloc) / (rounds * roundUserBytes)
	t.Logf("reopened %d closed ingest sets: %d B allocated, %.3f B per user byte", rounds, alloc, perByte)
	if perByte > 0.81 {
		t.Errorf("recovery allocates %.3f B per user byte stored, want at most 0.81", perByte)
	}
	requireReadable(t, s, "r2-l23", randBytes(2*1000+500+roundLarge-1, largeObject))
}

// TestBlobBytesPerUserByte gates the disk the glass costs: three
// ingest rounds leave platter blobs of at most 3.4 B per user byte.
// A blob is a header and the platter's sectors, each its packed codeword
// (two symbols a byte) at one stride: 3.31 B per user byte across
// information and redundancy. With a copy of every information sector's
// payload kept after them it was 5.08, and at one byte per symbol with a
// 24-byte index entry per sector, 8.39.
func TestBlobBytesPerUserByte(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PersistDir = t.TempDir()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.ClosePersist() }()
	const rounds = 3
	flushRounds(t, s, 0, rounds)
	blobs, err := filepath.Glob(filepath.Join(cfg.PersistDir, "platter-*.plt"))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, name := range blobs {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	perByte := float64(total) / (rounds * roundUserBytes)
	t.Logf("%d ingest rounds: %d blobs of %d B, %.3f B per user byte", rounds, len(blobs), total, perByte)
	if perByte > 3.4 {
		t.Errorf("platter blobs hold %.3f B per user byte, want at most 3.4", perByte)
	}
}

// TestReadsComeOffTheBlob: once flushed, a sector is read from its
// platter's blob file, not from memory. The blob holds its sectors at one
// stride, densely in address order, so each sector of the first track
// lies its index times the stride past sector (0, 0). Overwriting the
// object's sector at that offset makes it fail its decode; the Get still
// reads back byte-exact, through one within-track repair. The channel is
// noiseless so no other read escalates.
func TestReadsComeOffTheBlob(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channel = voxel.CleanChannel()
	cfg.PersistDir = t.TempDir()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.ClosePersist() }()
	data := randBytes(7, 300) // one sector of ciphertext
	if _, err := s.Put("acct", "obj", data); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	v, err := s.meta.Get(metadata.FileKey{Account: "acct", Name: "obj"})
	if err != nil || v.State != metadata.Durable || len(v.Extents) != 1 || v.Extents[0].SectorCount != 1 {
		t.Fatalf("obj: %+v, %v; want durable in one sector", v, err)
	}
	e := v.Extents[0]
	geom := s.cfg.Geom
	sid := media.SectorID{
		Track:  geom.InfoTrackPhysical(e.FirstSector / geom.InfoSectorsPerTrack),
		Sector: e.FirstSector % geom.InfoSectorsPerTrack,
	}
	if sid.Track != 0 {
		t.Fatalf("obj landed on track %d, want the platter's first", sid.Track)
	}
	pi, _ := s.platterByID(e.Platter)
	path := filepath.Join(cfg.PersistDir, fmt.Sprintf("platter-%d.plt", e.Platter))
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stride := s.pipe.SectorBytes()
	first, ok := pi.platter.ReadSectorInto(media.SectorID{}, nil)
	base := bytes.Index(file, first)
	if !ok || len(first) != stride || base < 0 {
		t.Fatalf("sector (0, 0) of platter %d: %d bytes (read %v), at %d in its blob; want %d bytes in it", e.Platter, len(first), ok, base, stride)
	}
	for sPos := 0; sPos < geom.SectorsPerTrack(); sPos++ {
		got, ok := pi.platter.ReadSectorInto(media.SectorID{Sector: sPos}, nil)
		at := base + sPos*stride
		if !ok || !bytes.Equal(file[at:at+stride], got) {
			t.Fatalf("sector (0, %d) is not the blob's bytes at %d", sPos, at)
		}
	}
	at := base + sid.Sector*stride
	garbage := make([]byte, stride)
	r := sim.NewRNG(99)
	for i := range garbage {
		garbage[i] = byte(r.Uint64())
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(garbage, int64(at)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	repairs := s.Stats().SectorRepairs
	got, err := s.Get("acct", "obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get after the blob lost a sector: err=%v, byte-exact=%v", err, bytes.Equal(got, data))
	}
	if n := s.Stats().SectorRepairs - repairs; n != 1 {
		t.Fatalf("the Get made %d within-track repairs, want 1: the sector was not read off the blob", n)
	}
}

// openFDs counts the process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("counts descriptors in /proc/self/fd")
	}
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

// TestClosePersistClosesBlobDescriptors: every stored platter holds one
// descriptor on its blob, opened when its burn starts or at recovery,
// and ClosePersist closes them all with the log.
func TestClosePersistClosesBlobDescriptors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PersistDir = t.TempDir()
	openFDs(t) // the runtime's poller opens its descriptors on first use
	idle := openFDs(t)
	for pass, when := range []string{"after a flush", "after recovery"} {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if pass == 0 {
			flushRounds(t, s, 0, 1)
		}
		s.mu.RLock()
		platters := len(s.platters)
		s.mu.RUnlock()
		// One descriptor is the log's open WAL segment.
		if held := openFDs(t) - idle - 1; held != platters || platters != 6 {
			t.Errorf("%s: %d platters hold %d descriptors, want 6 holding one each", when, platters, held)
		}
		if err := s.ClosePersist(); err != nil {
			t.Fatal(err)
		}
		if left := openFDs(t) - idle; left != 0 {
			t.Errorf("%s: ClosePersist left %d descriptors open", when, left)
		}
	}
}

// TestSectorRotDoesNotStopBoot: a blob's sectors carry no checksum
// beyond each codeword's own CRC32 and LDPC parity, so rot in a sector,
// or a blob cut short, is an unreadable sector that the coding levels
// repair like any other, not a reason to refuse to start. One byte
// flipped in a closed set's sector is corrected by its LDPC decode,
// which the scrubber sees as a lower margin; the whole sector rotten is
// a decode failure the scrubber counts and one within-track repair
// answers; cutting the blob's last sector off leaves that sector
// unreadable; and cutting it inside the information track leaves
// sectors the scrubber counts as sampled and failed. Each time the
// service reopens and the object reads back
// byte-exact. Only the header is checked whole: a flipped header byte
// still refuses the reopen. The channel is noiseless so no other read
// escalates.
func TestSectorRotDoesNotStopBoot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channel = voxel.CleanChannel()
	cfg.PersistDir = t.TempDir()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(7, 300) // one sector of ciphertext
	if _, err := s.Put("acct", "obj", data); err != nil {
		t.Fatal(err)
	}
	for i := 0; s.Stats().SetsCompleted == 0; i++ {
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put("acct", fmt.Sprintf("fill%d", i), randBytes(uint64(8+i), 300)); err != nil {
			t.Fatal(err)
		}
	}
	v, err := s.meta.Get(metadata.FileKey{Account: "acct", Name: "obj"})
	if err != nil || len(v.Extents) != 1 || v.Extents[0].SectorCount != 1 {
		t.Fatalf("obj: %+v, %v; want one sector", v, err)
	}
	e := v.Extents[0]
	geom := s.cfg.Geom
	if e.FirstSector >= geom.InfoSectorsPerTrack {
		t.Fatalf("obj landed on info sector %d, want the platter's first track", e.FirstSector)
	}
	pi, _ := s.platterByID(e.Platter)
	stride, spt := s.pipe.SectorBytes(), geom.SectorsPerTrack()
	var last media.SectorID // the blob's last sector
	for k := 0; k < geom.TracksPerPlatter*spt; k++ {
		if _, ok := pi.platter.ReadSectorInto(media.SectorID{Track: k / spt, Sector: k % spt}, nil); ok {
			last = media.SectorID{Track: k / spt, Sector: k % spt}
		}
	}
	first, ok := pi.platter.ReadSectorInto(media.SectorID{}, nil)
	path := filepath.Join(cfg.PersistDir, fmt.Sprintf("platter-%d.plt", e.Platter))
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(file, first) + e.FirstSector*stride
	if !ok || at < e.FirstSector*stride || last.Track == 0 {
		t.Fatalf("platter %d: sector (0, 0) not found in its blob, or no sector written past track 0", e.Platter)
	}
	if err := s.ClosePersist(); err != nil {
		t.Fatal(err)
	}

	// reopen writes file over the blob, reopens, reads obj back through
	// wantRepairs within-track repairs and hands check the reopened
	// service and a scrub of obj's platter.
	reopen := func(step string, wantRepairs int, check func(*Service, repair.ScrubReport)) {
		t.Helper()
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: reopen: %v", step, err)
		}
		defer func() { _ = s.ClosePersist() }()
		if got, err := s.Get("acct", "obj"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: Get: err=%v, byte-exact=%v", step, err, bytes.Equal(got, data))
		}
		if n := s.Stats().SectorRepairs; n != wantRepairs {
			t.Errorf("%s: the Get made %d within-track repairs, want %d", step, n, wantRepairs)
		}
		rep, err := s.ScrubPlatter(e.Platter, 0)
		if err != nil {
			t.Fatal(err)
		}
		check(s, rep)
	}
	sound := append([]byte(nil), file[at:at+stride]...)
	file[at+stride/2] ^= 0xff
	reopen("one byte flipped in obj's sector", 0, func(_ *Service, rep repair.ScrubReport) {
		if rep.SectorFailures != 0 || rep.MinMargin >= 1 {
			t.Errorf("one byte flipped: scrub %+v; want every sector decoded, one at a margin below 1", rep)
		}
	})
	r := sim.NewRNG(99)
	for i := at; i < at+stride; i++ {
		file[i] = byte(r.Uint64())
	}
	rotten := func(_ *Service, rep repair.ScrubReport) {
		if rep.SectorFailures < 1 {
			t.Errorf("obj's sector rotten: scrub %+v; want a sector failure", rep)
		}
	}
	reopen("obj's sector rotten", 1, rotten)
	file = file[:len(file)-stride]
	reopen("the blob cut short by one sector", 1, func(s *Service, rep repair.ScrubReport) {
		rotten(s, rep)
		pi, _ := s.platterByID(e.Platter)
		if _, ok := pi.platter.ReadSectorInto(last, nil); ok {
			t.Errorf("sector %+v, cut off the blob, still reads", last)
		}
	})
	// Cut the blob inside the information track, sound obj's sector
	// kept: the sectors the platter can no longer read are sampled and
	// failed, and the track is past within-track repair.
	const keep = 5
	if e.FirstSector >= keep {
		t.Fatalf("obj on info sector %d, want it among the first %d", e.FirstSector, keep)
	}
	copy(file[at:], sound)
	file = file[:at-e.FirstSector*stride+keep*stride]
	reopen("the blob cut inside its information track", 0, func(_ *Service, rep repair.ScrubReport) {
		if rep.TracksSampled != 1 || rep.SectorsSampled != spt || rep.SectorFailures != spt-keep ||
			rep.WorstTrackFailures != spt-keep || rep.TracksBeyondRepair != 1 {
			t.Errorf("blob cut to %d sectors: scrub %+v; want %d sampled and %d failures on its one track", keep, rep, spt, spt-keep)
		}
	})

	file[12] ^= 0xff // the platter id, behind the magic and the header length
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := New(cfg); err == nil {
		_ = s.ClosePersist()
		t.Fatal("a blob with a flipped header byte was opened")
	}
}

// TestLargeGroupBurnPinned pins the bytes one burn writes on a geometry
// whose large groups carry two redundancy tracks, with a partial last
// group: groups of 4 information and 2 redundancy tracks fill tracks 0-11,
// the platter's tail group (12-15) has room for two information tracks,
// and the burn's 68 sectors fill 9 tracks, so the tail group burns one
// information track, two implicit-zero members and both redundancy
// tracks. The blob's SHA-256 is the same at one codec worker and at four.
// Then the tail group's information track is overwritten with noise in
// the blob, the way TestSectorRotDoesNotStopBoot rots a sector, and after
// a reopen every object reads back byte-exact, the lost track's through
// large-group recovery. The channel is noiseless so no other read
// escalates.
func TestLargeGroupBurnPinned(t *testing.T) {
	const (
		wantLen = 185518
		wantSHA = "687eedf6c006f188bf88b5a9c83953c73fe9b245c4a8ec6215bff9a5fe0a3f14"
	)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Channel = voxel.CleanChannel()
			cfg.CodecWorkers = workers
			cfg.PersistDir = t.TempDir()
			cfg.Geom.TracksPerPlatter = 16
			cfg.Geom.LargeGroupInfoTracks = 4
			cfg.Geom.LargeGroupRedTracks = 2
			geom := cfg.Geom
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			objects := map[string][]byte{}
			for i := 0; i < 17; i++ { // 4 sectors each
				name := fmt.Sprintf("lg%02d", i)
				objects[name] = randBytes(uint64(700+i), 4*geom.SectorPayloadBytes)
				stageRaw(s, name, objects[name])
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			pi, ok := s.platterByID(0)
			if st := s.Stats(); !ok || st.PlattersWritten != 1 || s.usedTracks(pi) != 9 {
				t.Fatalf("%d platters written, platter 0 in the index %v; want one of 9 used tracks", st.PlattersWritten, ok)
			}
			lost := geom.InfoTrackPhysical(8)
			if lost != 12 || geom.LargeGroupRedTrack(2, 1) != 15 {
				t.Fatalf("information track 8 is physical %d, the tail group's last redundancy track %d; want 12 and 15",
					lost, geom.LargeGroupRedTrack(2, 1))
			}
			first, ok := pi.platter.ReadSectorInto(media.SectorID{Track: lost}, nil)
			if err := s.ClosePersist(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(cfg.PersistDir, "platter-0.plt")
			file := checkBlobPinned(t, path, wantLen, wantSHA)
			at := bytes.Index(file, first)
			stride := len(first)
			if !ok || at < 0 || at+geom.SectorsPerTrack()*stride > len(file) {
				t.Fatalf("sector (%d, 0) not found in the blob", lost)
			}
			r := sim.NewRNG(99)
			for i := at; i < at+geom.SectorsPerTrack()*stride; i++ {
				file[i] = byte(r.Uint64())
			}
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			if s, err = New(cfg); err != nil {
				t.Fatal(err)
			}
			defer func() { _ = s.ClosePersist() }()
			for name, want := range objects {
				requireReadable(t, s, name, want)
			}
			if st := s.Stats(); st.TrackRebuilds != 4 || st.PlatterRecovers != 0 {
				t.Fatalf("%d sectors read through large-group recovery, %d through the set; want the lost track's 4 and none",
					st.TrackRebuilds, st.PlatterRecovers)
			}
		})
	}
}

// checkBlobPinned reads the file at path and checks its length and
// SHA-256.
func checkBlobPinned(t *testing.T, path string, wantLen int, wantSHA string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); len(data) != wantLen || got != wantSHA {
		t.Errorf("%s: %d bytes, sha256 %s; want %d bytes, sha256 %s", filepath.Base(path), len(data), got, wantLen, wantSHA)
	}
	return data
}

// cancelOnDecode is a context canceled from the service's first sector
// decode on: a flush of one platter sees it canceled only once that
// platter's verify has begun, at the check before publish.
type cancelOnDecode struct {
	context.Context
	s *Service
}

func (c cancelOnDecode) Err() error {
	if c.s.om.codecDecSectors.Value() > 0 {
		return context.Canceled
	}
	return nil
}

// TestUnpublishedPlattersLeaveNoBlob: a platter's blob is its glass from
// the burn's first sector, so every platter a flush burns and does not
// publish must close and remove its file: a scrap at flush.burn,
// media.write or flush.verify, and a round dropped by a flush.publish or
// publish.platter fault, by a failed publish record or by a context
// canceled before publish. A platter is durable before it is visible, so
// one whose publish record fails never enters the index. After each, the
// persist directory holds exactly the indexed platters' blobs, a second
// flush publishes the file onto one platter, and ClosePersist leaves no
// descriptor open.
func TestUnpublishedPlattersLeaveNoBlob(t *testing.T) {
	for _, tc := range []struct {
		name, rule string
		fails      bool // the first flush returns an error
		platters   int  // in the index after the second flush
	}{
		{"flush.burn scrap", "op=flush.burn,mode=error,count=2", false, 1},
		{"media.write scrap", "op=media.write,mode=error,count=2", false, 1},
		{"flush.verify scrap", "op=flush.verify,mode=error,count=2", false, 1},
		{"flush.publish fault", "op=flush.publish,mode=error,count=1", true, 1},
		{"publish.platter fault", "op=publish.platter,mode=error,count=1", true, 1},
		{"publish record fault", "op=persist.append,mode=error,count=1", true, 1},
		{"canceled before publish", "", true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.PersistDir = t.TempDir()
			cfg.CodecWorkers = 1
			cfg.Faults = faults.New(1)
			if tc.rule != "" {
				if err := cfg.Faults.ArmString(tc.rule); err != nil {
					t.Fatal(err)
				}
			}
			openFDs(t)
			idle := openFDs(t)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			data := randBytes(93, 5000)
			stageRaw(s, "file", data)
			ctx := context.Context(context.Background())
			if tc.rule == "" {
				ctx = cancelOnDecode{Context: ctx, s: s}
			}
			err = s.FlushCtx(ctx)
			if (err != nil) != tc.fails {
				t.Fatalf("first flush returned %v, want an error %v", err, tc.fails)
			}
			if tc.rule == "" && !strings.Contains(fmt.Sprint(err), "canceled before publish") {
				t.Fatalf("first flush returned %v, want it canceled before publish", err)
			}
			requireBlobsMatchIndex(t, s, "after the first flush")
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			requireBlobsMatchIndex(t, s, "after the second flush")
			if len(s.platters) != tc.platters {
				t.Fatalf("%d platters published, want %d", len(s.platters), tc.platters)
			}
			requireReadable(t, s, "file", data)
			if err := s.ClosePersist(); err != nil {
				t.Fatal(err)
			}
			if left := openFDs(t) - idle; left != 0 {
				t.Errorf("ClosePersist left %d descriptors open", left)
			}
		})
	}
}

// TestGetsRaceTheNextBurn: a platter's glass is written in place by its
// burn and read in place by every Get, with no switch between the two.
// Readers Get every object put so far while each round is flushed —
// staged, then off the blob of a platter being published — and while the
// next round and its set close burn their platters. Every Get is
// byte-exact, and the race detector (make race) must find no read of
// bytes a burn is writing; after a reopen every object still reads back.
func TestGetsRaceTheNextBurn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PersistDir = t.TempDir()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const rounds, perRound = 4, 3
	var names []string
	objects := map[string][]byte{}
	for i := 0; i < rounds*perRound; i++ {
		name := fmt.Sprintf("obj-%02d", i)
		names = append(names, name)
		objects[name] = randBytes(uint64(200+i), 10000)
	}
	var visible atomic.Int32 // names[:visible] have been put
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for _, name := range names[:visible.Load()] {
					if got, err := s.Get("acct", name); err != nil || !bytes.Equal(got, objects[name]) {
						t.Errorf("Get %s during a flush: err=%v, byte-exact=%v", name, err, bytes.Equal(got, objects[name]))
						return
					}
				}
			}
		}()
	}
	for r := 0; r < rounds; r++ {
		for _, name := range names[r*perRound : (r+1)*perRound] {
			if _, err := s.Put("acct", name, objects[name]); err != nil {
				t.Fatal(err)
			}
		}
		visible.Store(int32((r + 1) * perRound))
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if st := s.Stats(); st.SetsCompleted != 1 {
		t.Fatalf("%d rounds closed %d sets, want 1", rounds, st.SetsCompleted)
	}
	if err := s.ClosePersist(); err != nil {
		t.Fatal(err)
	}
	if s, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.ClosePersist() }()
	for name, data := range objects {
		if got, err := s.Get("acct", name); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Get %s after a reopen: err=%v, byte-exact=%v", name, err, bytes.Equal(got, data))
		}
	}
}
