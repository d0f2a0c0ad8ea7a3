package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"silica/internal/faults"
	"silica/internal/media"
	"silica/internal/metadata"
	"silica/internal/obs"
	"silica/internal/repair"
	"silica/internal/staging"
)

func openT(t *testing.T, dir string, inj *faults.Injector) (*Log, *State) {
	t.Helper()
	l, st, err := Open(Options{Dir: dir, Fingerprint: "test-cfg", Faults: inj})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, st
}

// checkTruncatedReported asserts that a recovery which did (or did
// not) discard a WAL tail says so everywhere it is reported: the log's
// accessor and the silica_persist_recovery_truncated gauge as scraped.
func checkTruncatedReported(t *testing.T, l *Log, reg *obs.Registry, want bool) {
	t.Helper()
	if got := l.RecoveryTruncated(); got != want {
		t.Errorf("RecoveryTruncated() = %v, want %v", got, want)
	}
	line := "silica_persist_recovery_truncated 0\n"
	if want {
		line = "silica_persist_recovery_truncated 1\n"
	}
	var expo strings.Builder
	if err := reg.WriteProm(&expo); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expo.String(), line) {
		t.Errorf("exposition lacks %q", line)
	}
}

func appendSync(t *testing.T, l *Log, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if _, err := l.Append(r); err != nil {
			t.Fatalf("Append(%T): %v", r, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

func TestRecordRoundTripThroughLog(t *testing.T) {
	dir := t.TempDir()
	l, st := openT(t, dir, nil)
	if st.Records != 0 || len(st.Staged) != 0 {
		t.Fatalf("fresh dir not empty: %+v", st)
	}
	put := &RecPut{
		Account: "acct", Name: "file-1", Version: 1, Size: 100,
		KeyID: "acct/file-1#k7", Key: []byte("0123456789abcdef0123456789abcdef"),
		Arrival: 1.5, Ciphertext: []byte("ciphertext-bytes"), OpSeq: 7,
	}
	appendSync(t, l, put)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	reg := obs.NewRegistry()
	l2, st2, err := Open(Options{Dir: dir, Fingerprint: "test-cfg", Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	checkTruncatedReported(t, l2, reg, false)
	if st2.Records != 1 {
		t.Fatalf("replayed %d records, want 1", st2.Records)
	}
	if st2.OpSeq != 7 {
		t.Fatalf("OpSeq = %d, want 7", st2.OpSeq)
	}
	key := metadata.FileKey{Account: "acct", Name: "file-1"}
	v, err := st2.Meta.GetVersion(key, 1)
	if err != nil || v.State != metadata.Staged || v.Size != 100 || v.KeyID != put.KeyID {
		t.Fatalf("recovered version = %+v, %v", v, err)
	}
	if len(st2.Staged) != 1 || string(st2.Staged[0].Data) != "ciphertext-bytes" {
		t.Fatalf("staged copy not recovered: %+v", st2.Staged)
	}
	if string(st2.Keys[put.KeyID]) != string(put.Key) {
		t.Fatalf("key material not recovered")
	}
}

func TestDeleteReplayRemovesKeys(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, nil)
	appendSync(t, l,
		&RecPut{Account: "a", Name: "f", Version: 1, Size: 10, KeyID: "k1", Key: []byte("K"), Ciphertext: []byte("c"), OpSeq: 1},
		&RecDelete{Account: "a", Name: "f", KeyIDs: []string{"k1"}},
	)
	l.Close()

	l2, st := openT(t, dir, nil)
	defer l2.Close()
	if _, ok := st.Keys["k1"]; ok {
		t.Fatalf("shredded key recovered")
	}
	key := metadata.FileKey{Account: "a", Name: "f"}
	if v, err := st.Meta.GetVersion(key, 1); err != nil || v.State != metadata.Deleted {
		t.Fatalf("version after delete replay = %+v, %v", v, err)
	}
	// The staged copy of a deleted version is normalized away.
	if len(st.Staged) != 0 {
		t.Fatalf("staged copy of deleted version survived: %+v", st.Staged)
	}
}

func TestTornTailDiscardedNotFatal(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, nil)
	appendSync(t, l, &RecPut{Account: "a", Name: "f1", Version: 1, KeyID: "k1", Key: []byte("K"), Ciphertext: []byte("c"), OpSeq: 1})
	appendSync(t, l, &RecPut{Account: "a", Name: "f2", Version: 1, KeyID: "k2", Key: []byte("K"), Ciphertext: []byte("c"), OpSeq: 2})
	l.Close()

	// Append garbage: a torn frame from a crash mid-write.
	listing, err := listDir(dir)
	if err != nil || len(listing.wals) == 0 {
		t.Fatalf("listDir: %v %+v", err, listing)
	}
	walPath := filepath.Join(dir, walName(listing.wals[len(listing.wals)-1]))
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x55, 0x66, 0x77})
	f.Close()

	reg := obs.NewRegistry()
	l2, st, err := Open(Options{Dir: dir, Fingerprint: "test-cfg", Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	checkTruncatedReported(t, l2, reg, true)
	if !st.Truncated {
		t.Fatalf("torn tail not reported")
	}
	if st.Records != 2 {
		t.Fatalf("replayed %d records, want 2 (garbage discarded)", st.Records)
	}
}

func TestCorruptMidRecordEndsReplayThere(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, nil)
	appendSync(t, l, &RecPut{Account: "a", Name: "f1", Version: 1, KeyID: "k1", Key: []byte("K"), Ciphertext: []byte("cccccccccccccccccccc"), OpSeq: 1})
	appendSync(t, l, &RecPut{Account: "a", Name: "f2", Version: 1, KeyID: "k2", Key: []byte("K"), Ciphertext: []byte("cccccccccccccccccccc"), OpSeq: 2})
	l.Close()

	// Flip a byte inside the second frame's payload.
	listing, _ := listDir(dir)
	walPath := filepath.Join(dir, walName(listing.wals[len(listing.wals)-1]))
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0xff
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	l2, st, err := Open(Options{Dir: dir, Fingerprint: "test-cfg", Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	checkTruncatedReported(t, l2, reg, true)
	if !st.Truncated || st.Records != 1 {
		t.Fatalf("want 1 record + truncated, got %d truncated=%v", st.Records, st.Truncated)
	}
	if _, err := st.Meta.GetVersion(metadata.FileKey{Account: "a", Name: "f1"}, 1); err != nil {
		t.Fatalf("intact prefix record lost: %v", err)
	}
}

func TestFingerprintMismatchRefuses(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, nil)
	appendSync(t, l, &RecPut{Account: "a", Name: "f", Version: 1, KeyID: "k", Key: []byte("K"), Ciphertext: []byte("c")})
	cut, err := l.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.CommitSnapshot(cut, (&State{Meta: metadata.NewStore()}).snapData("test-cfg")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, _, err := Open(Options{Dir: dir, Fingerprint: "other-cfg"}); err == nil {
		t.Fatalf("Open with mismatched fingerprint succeeded")
	}
}

func TestSnapshotRotationAndGC(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, nil)
	appendSync(t, l, &RecPut{Account: "a", Name: "f1", Version: 1, Size: 5, KeyID: "k1", Key: []byte("K1"), Ciphertext: []byte("c1"), OpSeq: 1})

	cut, err := l.BeginSnapshot()
	if err != nil {
		t.Fatalf("BeginSnapshot: %v", err)
	}
	// A record racing the export: lands past the cut, must replay.
	appendSync(t, l, &RecPut{Account: "a", Name: "f2", Version: 1, Size: 6, KeyID: "k2", Key: []byte("K2"), Ciphertext: []byte("c2"), OpSeq: 2})

	meta := metadata.NewStore()
	meta.RestoreVersion(metadata.FileKey{Account: "a", Name: "f1"},
		metadata.Version{Version: 1, Size: 5, State: metadata.Staged, KeyID: "k1"})
	snap := (&State{
		Meta: meta,
		Keys: map[string][]byte{"k1": []byte("K1")},
		Staged: []*staging.File{{
			Key: metadata.FileKey{Account: "a", Name: "f1"}, Version: 1, Size: 2, Data: []byte("c1"),
		}},
		OpSeq: 1,
	}).snapData("test-cfg")
	if err := l.CommitSnapshot(cut, snap); err != nil {
		t.Fatalf("CommitSnapshot: %v", err)
	}
	if n := l.AppendsSinceSnapshot(); n != 0 {
		t.Fatalf("AppendsSinceSnapshot after commit = %d", n)
	}
	listing, _ := listDir(dir)
	if len(listing.snaps) != 1 || len(listing.wals) != 1 {
		t.Fatalf("GC left snaps=%v wals=%v", listing.snaps, listing.wals)
	}
	l.Close()

	l2, st := openT(t, dir, nil)
	defer l2.Close()
	if st.Records != 1 {
		t.Fatalf("replayed %d records over snapshot, want 1 (f2 only)", st.Records)
	}
	for _, name := range []string{"f1", "f2"} {
		if _, err := st.Meta.GetVersion(metadata.FileKey{Account: "a", Name: name}, 1); err != nil {
			t.Fatalf("%s missing after snapshot+replay: %v", name, err)
		}
	}
	if st.OpSeq != 2 {
		t.Fatalf("OpSeq = %d, want 2", st.OpSeq)
	}
}

func TestPublishSetLifecycleAndBlobs(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, nil)

	sectors := map[media.SectorID][]uint8{
		{Track: 0, Sector: 0}: {1, 2, 3},
		{Track: 1, Sector: 2}: {4, 5, 6},
	}
	for id := media.PlatterID(1); id <= 2; id++ {
		writeBlob(t, l, id, sectors)
		appendSync(t, l, &RecPublish{PlatterDesc: PlatterDesc{ID: id, Set: 0, SetPos: int(id - 1), Used: 3}, Reason: "published"})
	}
	// The set close publishes its redundancy platter.
	writeBlob(t, l, 3, sectors)
	appendSync(t, l,
		&RecSetClose{Set: 0, Members: []media.PlatterID{1, 2, 3}, Redundancy: 1, Reason: "redundancy"},
		&RecHealth{Platter: 2, From: int32(repair.Healthy), To: int32(repair.Suspect), Reason: "scrub"},
	)
	l.Close()

	l2, st := openT(t, dir, nil)
	defer l2.Close()
	defer st.CloseBlobs()
	if len(st.Platters) != 3 || len(st.Sets) != 1 || len(st.PendingSet) != 0 {
		t.Fatalf("platters=%d sets=%d pending=%d", len(st.Platters), len(st.Sets), len(st.PendingSet))
	}
	if !reflect.DeepEqual(st.Sets[0], []media.PlatterID{1, 2, 3}) {
		t.Fatalf("set members = %v", st.Sets[0])
	}
	if got := blobSectors(st.Platters[0].Blob); !reflect.DeepEqual(got, sectors) {
		t.Fatalf("sectors not recovered: %+v", got)
	}
	if st.NextPlatter != 4 {
		t.Fatalf("NextPlatter = %d, want 4", st.NextPlatter)
	}
	var h2 *HealthDump
	for i := range st.Health {
		if st.Health[i].Platter == 2 {
			h2 = &st.Health[i]
		}
	}
	if h2 == nil || h2.Health != repair.Suspect || len(h2.History) != 2 {
		t.Fatalf("health of platter 2 = %+v", h2)
	}
}

// TestOrphanRedundancyAndBlobGC: a blob with no record is a crash
// between its burn and its record, and recovery removes it. A set's
// redundancy platters have no record of their own: a close cut off
// before its set-close record leaves only their blobs.
func TestOrphanRedundancyAndBlobGC(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, nil)
	sectors := map[media.SectorID][]uint8{{Track: 0, Sector: 0}: {9}}
	// Info platter of an open set: survives.
	writeBlob(t, l, 1, sectors)
	appendSync(t, l, &RecPublish{PlatterDesc: PlatterDesc{ID: 1, Set: 0, SetPos: 0}, Reason: "published"})
	// A redundancy platter of a close that never recorded, and a blob
	// whose publish record never landed.
	writeBlob(t, l, 2, sectors)
	writeBlob(t, l, 9, sectors)
	l.Close()

	l2, st := openT(t, dir, nil)
	defer l2.Close()
	defer st.CloseBlobs()
	if len(st.Platters) != 1 || st.Platters[0].ID != 1 {
		t.Fatalf("platters = %+v", st.Platters)
	}
	if len(st.PendingSet) != 1 || st.PendingSet[0] != 1 {
		t.Fatalf("pending = %v", st.PendingSet)
	}
	if got := blobSectors(st.Platters[0].Blob); !reflect.DeepEqual(got, sectors) {
		t.Fatalf("open-set member's sectors not recovered: %+v", got)
	}
	if len(st.Health) != 1 || st.Health[0].Platter != 1 {
		t.Fatalf("health = %+v, want platter 1's alone", st.Health)
	}
	listing, _ := listDir(dir)
	if len(listing.blobs) != 1 || listing.blobs[0] != 1 {
		t.Fatalf("blob GC left %v", listing.blobs)
	}
}

func TestMissingBlobIsFatal(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, nil)
	writeBlob(t, l, 1, map[media.SectorID][]uint8{{Track: 0, Sector: 0}: {1}})
	appendSync(t, l, &RecPublish{PlatterDesc: PlatterDesc{ID: 1, Set: 0, SetPos: 0}, Reason: "published"})
	l.Close()
	if err := os.Remove(filepath.Join(dir, blobName(1))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir, Fingerprint: "test-cfg"}); err == nil {
		t.Fatalf("Open succeeded with a publish record and no blob")
	}
}

// TestV1BlobRefused: blobs of earlier formats are refused at open even
// with their CRC intact; there is no reader for them. "SILPLT01" held
// one byte per symbol: platter id, then a count and (track, sector,
// data) per sector. "SILPLT02" held the packed sectors behind a bitmap
// and a payload cache after them, under one CRC over the whole file.
func TestV1BlobRefused(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, nil)
	writeBlob(t, l, 1, map[media.SectorID][]uint8{{Track: 0, Sector: 0}: {1}})
	appendSync(t, l, &RecPublish{PlatterDesc: PlatterDesc{ID: 1, Set: 0, SetPos: 0}, Reason: "published"})
	l.Close()
	for _, old := range []string{
		"SILPLT01\x02\x02\x00\x00\x02\x01\x00", // id 1; one sector (0, 0) = [1]; no payloads
		"SILPLT02\x02\x14\x02\x02\x01\x01\x00", // id 1; 10 a track; stride 1; sector (0, 0) = [1]; no payloads
	} {
		blob := binary.LittleEndian.AppendUint32([]byte(old), crc32.ChecksumIEEE([]byte(old)))
		if err := os.WriteFile(filepath.Join(dir, blobName(1)), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(Options{Dir: dir, Fingerprint: "test-cfg"}); err == nil || !strings.Contains(err.Error(), "not a SILPLT03 file") {
			t.Fatalf("Open of a directory holding a %s blob: %v; want it refused", old[:8], err)
		}
	}
}

func TestCrashFreezeLosesUnsynced(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, nil)
	appendSync(t, l, &RecPut{Account: "a", Name: "acked", Version: 1, KeyID: "k1", Key: []byte("K"), Ciphertext: []byte("c"), OpSeq: 1})
	// Appended but never synced: must not survive.
	if _, err := l.Append(&RecPut{Account: "a", Name: "unacked", Version: 1, KeyID: "k2", Key: []byte("K"), Ciphertext: []byte("c"), OpSeq: 2}); err != nil {
		t.Fatal(err)
	}
	l.Crash()
	if _, err := l.Append(&RecDelete{Account: "a", Name: "acked"}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Append after crash = %v, want ErrCrashed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Sync after crash = %v, want ErrCrashed", err)
	}
	l.Close()

	l2, st := openT(t, dir, nil)
	defer l2.Close()
	if _, err := st.Meta.GetVersion(metadata.FileKey{Account: "a", Name: "acked"}, 1); err != nil {
		t.Fatalf("acked record lost: %v", err)
	}
	if _, err := st.Meta.GetVersion(metadata.FileKey{Account: "a", Name: "unacked"}, 1); err == nil {
		t.Fatalf("unsynced record survived the crash")
	}
}

func TestKillPointFreezesThroughInjector(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(1)
	l, _ := openT(t, dir, inj)
	inj.SetKill(l.Crash)
	if err := inj.ArmString("kill@persist.append:after=1"); err != nil {
		t.Fatal(err)
	}
	appendSync(t, l, &RecPut{Account: "a", Name: "first", Version: 1, KeyID: "k1", Key: []byte("K"), Ciphertext: []byte("c"), OpSeq: 1})
	_, err := l.Append(&RecPut{Account: "a", Name: "second", Version: 1, KeyID: "k2", Key: []byte("K"), Ciphertext: []byte("c"), OpSeq: 2})
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("kill-point append = %v, want injected error", err)
	}
	if !l.Crashed() {
		t.Fatalf("kill hook did not freeze the log")
	}
	l.Close()

	l2, st := openT(t, dir, nil)
	defer l2.Close()
	if st.Records != 1 {
		t.Fatalf("replayed %d records, want 1", st.Records)
	}
}

// TestPublishReplayReplacesMember: a RecPublish into a completed set's
// position is the whole rebuild. Replay puts the replacement in the
// position, moves the displaced member's extents to it and retires the
// displaced member with the reason the live publish records, stamped
// with the record's time. Replay used to leave the old member in the set
// and the extents on it, and then to leave it failed when its own
// retire record was lost.
func TestPublishReplayReplacesMember(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, nil)
	sectors := map[media.SectorID][]uint8{{Track: 0, Sector: 0}: {1}}
	for id := media.PlatterID(1); id <= 2; id++ {
		writeBlob(t, l, id, sectors)
		appendSync(t, l, &RecPublish{PlatterDesc: PlatterDesc{ID: id, Set: 0, SetPos: int(id - 1)}, Reason: "published"})
	}
	writeBlob(t, l, 3, sectors)
	appendSync(t, l,
		&RecSetClose{Set: 0, Members: []media.PlatterID{1, 2, 3}, Redundancy: 1, Reason: "published"},
		&RecPut{Account: "a", Name: "f", Version: 1, Size: 3, KeyID: "k", Key: []byte("K"), Ciphertext: []byte("ccc"), OpSeq: 1},
		&RecDurable{Account: "a", Name: "f", Version: 1, Extents: []metadata.Extent{{Platter: 2, FirstSector: 0, SectorCount: 1}}},
	)
	appendSync(t, l, &RecHealth{Platter: 2, From: int32(repair.Healthy), To: int32(repair.Failed), Reason: "injected failure"})
	writeBlob(t, l, 7, sectors)
	appendSync(t, l, &RecPublish{PlatterDesc: PlatterDesc{ID: 7, Set: 0, SetPos: 1}, Reason: "rebuilt (replaces platter 2)", AtUnixNano: 1700000000000000007})
	l.Close()

	l2, st := openT(t, dir, nil)
	defer l2.Close()
	if !reflect.DeepEqual(st.Sets, [][]media.PlatterID{{1, 7, 3}}) || len(st.PendingSet) != 0 {
		t.Fatalf("sets after the replacement's publish = %v, pending %v", st.Sets, st.PendingSet)
	}
	v, err := st.Meta.GetVersion(metadata.FileKey{Account: "a", Name: "f"}, 1)
	if err != nil || v.Extents[0].Platter != 7 {
		t.Fatalf("durable version = %+v, %v; want its extent on platter 7", v, err)
	}
	health := map[media.PlatterID]string{}
	for _, h := range st.Health {
		last := h.History[len(h.History)-1]
		health[h.Platter] = fmt.Sprintf("%v: %s->%s %q at %d", h.Health, last.From, last.To, last.Reason, last.At.UnixNano())
	}
	want := map[media.PlatterID]string{
		1: `healthy: ->healthy "published" at 0`,
		2: `retired: failed->retired "rebuilt as platter 7 (1 extents remapped)" at 1700000000000000007`,
		3: `healthy: ->healthy "published" at 0`,
		7: `healthy: ->healthy "rebuilt (replaces platter 2)" at 1700000000000000007`,
	}
	if !reflect.DeepEqual(health, want) {
		t.Fatalf("health after replay = %v, want %v", health, want)
	}
}
