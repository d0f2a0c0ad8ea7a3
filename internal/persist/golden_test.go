package persist

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"silica/internal/media"
	"silica/internal/metadata"
	"silica/internal/repair"
	"silica/internal/staging"
)

// The golden fixtures under testdata/ pin the on-disk formats byte for
// byte: they were generated by the hand-written encode/decode pairs
// the formats were first shipped with, and every later codec must
// reproduce them exactly. Regenerating them (-update-golden) is a
// format change, not a test fix.
var updateGolden = flag.Bool("update-golden", false, "rewrite internal/persist/testdata from the current codec")

const goldenFingerprint = "golden-cfg"

// goldenRecords is one value of every record type, service tags first.
// Every field is non-zero and every slice has at least two elements,
// except where a case is planted on purpose: RecRelease has an empty
// Name, and RecPublish carries a negative int.
func goldenRecords() []struct {
	name string
	rec  Record
} {
	return []struct {
		name string
		rec  Record
	}{
		{"put", &RecPut{
			Account: "acct", Name: "file-1", Version: 3, Size: 4096,
			KeyID: "acct/file-1#k7", Key: []byte("0123456789abcdef"),
			Arrival: 12.625, Ciphertext: []byte("ciphertext \x00\xff bytes"), OpSeq: 1 << 40,
		}},
		{"delete", &RecDelete{Account: "acct", Name: "file-2", KeyIDs: []string{"k1", "acct/file-2#k9"}}},
		{"publish", &RecPublish{
			PlatterDesc: PlatterDesc{ID: 300, Set: -1, SetPos: 2, Redundancy: true, Used: 129},
			Reason:      "published", AtUnixNano: 1700000000123456789,
		}},
		{"set-close", &RecSetClose{
			Set: 5, Members: []media.PlatterID{11, 12, 300, 301}, Redundancy: 2, Used: 129,
			Reason: "published (set redundancy)", AtUnixNano: 1700000000123456790,
		}},
		{"durable", &RecDurable{
			Account: "acct", Name: "file-3", Version: 2,
			Extents: []metadata.Extent{
				{Platter: 11, FirstSector: 64, SectorCount: 9, Shard: 1},
				{Platter: 12, FirstSector: 1, SectorCount: 200, Shard: 2},
			},
		}},
		{"release", &RecRelease{Account: "acct", Name: "", Version: 70000}},
		{"health", &RecHealth{Platter: 12, From: 1, To: 2, Reason: "scrub margin", AtUnixNano: -5}},
		{"ring-config", &RecRingConfig{Seed: 0xfeedfacecafebeef, VNodes: 96}},
		{"dir-place", &RecDirPlace{
			Account: "acct", Name: "obj", Primary: "lib-0", Replica: "lib-2",
			PEpoch: 1, REpoch: 300, Version: 4, Size: 1 << 33,
		}},
		{"dir-tombstone", &RecDirTombstone{Account: "acct", Name: "gone"}},
		{"dir-delete", &RecDirDelete{Account: "acct", Name: "gone"}},
		{"member", &RecMember{Name: "lib-1", Alive: true, Epoch: 2}},
		{"member-remove", &RecMemberRemove{Name: "lib-3"}},
	}
}

func goldenSnapshot() *SnapshotData {
	at := func(ns int64) time.Time { return time.Unix(0, ns) }
	return &SnapshotData{
		OpSeq:       77,
		NextPlatter: 302,
		Meta: []metadata.FileDump{
			{Key: metadata.FileKey{Account: "a", Name: "f1"}, Versions: []metadata.Version{
				{Version: 1, Size: 10, State: metadata.Deleted, WriteTime: 0.5, KeyID: "a/f1#k1", Extents: []metadata.Extent{}},
				{Version: 2, Size: 4096, State: metadata.Durable, WriteTime: 2.25, KeyID: "a/f1#k2",
					Extents: []metadata.Extent{
						{Platter: 11, FirstSector: 3, SectorCount: 4, Shard: 1},
						{Platter: 12, FirstSector: 5, SectorCount: 6, Shard: 2},
					}},
			}},
			{Key: metadata.FileKey{Account: "b", Name: ""}, Versions: []metadata.Version{
				{Version: 1, Size: 7, State: metadata.Staged, WriteTime: 3, KeyID: "b/#k3", Extents: []metadata.Extent{}},
			}},
		},
		Keys: map[string][]byte{"b/#k3": []byte("key-three"), "a/f1#k2": []byte("key-two")},
		Staged: []*staging.File{
			{Key: metadata.FileKey{Account: "b", Name: ""}, Version: 1, Size: 9, Arrival: 1.5, Data: []byte("staged-01")},
			{Key: metadata.FileKey{Account: "c", Name: "g"}, Version: 2, Size: 2, Arrival: 2.5, Data: []byte{0, 255}},
		},
		Platters: []PlatterDesc{
			{ID: 11, Set: 0, SetPos: 0, Used: 40},
			{ID: 300, Set: 0, SetPos: 2, Redundancy: true, Used: 1},
		},
		Sets:       [][]media.PlatterID{{11, 12, 300}, {13, 14}},
		PendingSet: []media.PlatterID{15, 16},
		Health: []HealthDump{
			{Platter: 11, Health: repair.Suspect, History: []repair.Transition{
				{From: "", To: "healthy", Reason: "published", At: at(1700000000000000001)},
				{From: "healthy", To: "suspect", Reason: "scrub", At: at(1700000000000000002)},
			}},
			{Platter: 300, Health: repair.Healthy, History: []repair.Transition{
				{To: "healthy", Reason: "redundancy", At: at(3)},
				{From: "healthy", To: "healthy", Reason: "noop", At: at(4)},
			}},
		},
	}
}

func goldenRouterState() *RouterState {
	return &RouterState{
		Seed: 0xfeedfacecafebeef, VNodes: 96, HasConfig: true,
		Members: []RouterMember{
			goldenMember(RecMember{Name: "lib-0", Alive: true, Epoch: 1}),
			goldenMember(RecMember{Name: "lib-1", Alive: false, Epoch: 300}),
		},
		Entries: []RouterEntry{
			goldenEntry(RecDirPlace{Account: "a", Name: "x", Primary: "lib-0", Replica: "lib-1", PEpoch: 1, REpoch: 300, Version: 2, Size: 150}, false),
			goldenEntry(RecDirPlace{Account: "a", Name: "", Primary: "lib-1", Replica: "lib-0", PEpoch: 300, REpoch: 1, Version: -1, Size: 1 << 33}, true),
		},
	}
}

func goldenBlob() (media.PlatterID, map[media.SectorID][]uint8) {
	return 300, map[media.SectorID][]uint8{
		{Track: 1, Sector: 2}: {4, 5, 6},
		{Track: 0, Sector: 7}: {1, 2, 3},
		{Track: 1, Sector: 0}: {7, 0x80, 0xff},
	}
}

// hexDump renders bytes as 32-byte lines of hex, the fixture format.
func hexDump(b []byte) []byte {
	var out bytes.Buffer
	for len(b) > 0 {
		n := len(b)
		if n > 32 {
			n = 32
		}
		out.WriteString(hex.EncodeToString(b[:n]))
		out.WriteByte('\n')
		b = b[n:]
	}
	return out.Bytes()
}

// fixture loads testdata/wire/<name>.hex — or, under -update-golden,
// writes it from got first.
func fixture(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", "wire", name+".hex")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, hexDump(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.Join(strings.Fields(string(text)), ""))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return want
}

func checkBytes(t *testing.T, name string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Errorf("%s: encoding drifted from the fixture\n got %x\nwant %x", name, got, want)
	}
}

// goldenSegment frames recs at consecutive LSNs from start, exactly as
// Log lays out a WAL file, and returns the file's bytes.
func goldenSegment(t *testing.T, start uint64, recs []Record) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), walName(start))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeWALHeader(f, start); err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if _, err := f.Write(encodeFrame(nil, start+uint64(i), r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestGoldenWire(t *testing.T) {
	recs := goldenRecords()
	var service, router []Record
	for _, g := range recs {
		got := goldenEncodeRecord(g.rec)
		want := fixture(t, "rec-"+g.name, got)
		checkBytes(t, "rec-"+g.name, got, want)
		back, err := goldenDecodeRecord(want)
		if err != nil {
			t.Errorf("rec-%s: decode: %v", g.name, err)
		} else if !reflect.DeepEqual(back, g.rec) {
			t.Errorf("rec-%s: decoded %+v, want %+v", g.name, back, g.rec)
		}
		if g.rec.recType() < tagRingConfig {
			service = append(service, g.rec)
		} else {
			router = append(router, g.rec)
		}
	}
	if len(service) != 7 || len(router) != 6 {
		t.Fatalf("golden records cover %d service + %d router types, want 7 + 6", len(service), len(router))
	}

	for _, seg := range []struct {
		name   string
		start  uint64
		recs   []Record
		router bool
	}{
		{"wal-service", 0x0102030405, service, false},
		{"wal-router", 7, router, true},
	} {
		got := goldenSegment(t, seg.start, seg.recs)
		want := fixture(t, seg.name, got)
		checkBytes(t, seg.name, got, want)
		path := filepath.Join(t.TempDir(), "fixture.wal")
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		frames, tornAt, err := goldenScanWAL(path, seg.router)
		if err != nil || tornAt != -1 || len(frames) != len(seg.recs) {
			t.Fatalf("%s: scan = %d frames, tornAt %d, err %v", seg.name, len(frames), tornAt, err)
		}
		for i, fr := range frames {
			if fr.lsn != seg.start+uint64(i) || !reflect.DeepEqual(fr.rec, seg.recs[i]) {
				t.Errorf("%s frame %d: lsn %d rec %+v, want lsn %d rec %+v",
					seg.name, i, fr.lsn, fr.rec, seg.start+uint64(i), seg.recs[i])
			}
		}
		// The other domain's table must not decode this segment.
		if frames, tornAt, _ := goldenScanWAL(path, !seg.router); len(frames) != 0 || tornAt < 0 {
			t.Errorf("%s: foreign table decoded %d frames (tornAt %d)", seg.name, len(frames), tornAt)
		}
	}

	snap := goldenSnapshot()
	got := goldenEncodeSnapshot(41, goldenFingerprint, snap)
	want := fixture(t, "snapshot-service", got)
	checkBytes(t, "snapshot-service", got, want)
	if cut, fp, back, err := goldenDecodeSnapshot(want); err != nil {
		t.Errorf("snapshot-service: decode: %v", err)
	} else if cut != 41 || fp != goldenFingerprint || !reflect.DeepEqual(back, snap) {
		t.Errorf("snapshot-service: decoded cut %d fp %q\n got %+v\nwant %+v", cut, fp, back, snap)
	}

	rs := goldenRouterState()
	got = goldenEncodeRouterSnapshot(300, goldenFingerprint, rs)
	want = fixture(t, "snapshot-router", got)
	checkBytes(t, "snapshot-router", got, want)
	if cut, fp, back, err := goldenDecodeRouterSnapshot(want); err != nil {
		t.Errorf("snapshot-router: decode: %v", err)
	} else if cut != 300 || fp != goldenFingerprint || !reflect.DeepEqual(back, rs) {
		t.Errorf("snapshot-router: decoded cut %d fp %q\n got %+v\nwant %+v", cut, fp, back, rs)
	}

	id, sectors := goldenBlob()
	got = goldenEncodeBlob(id, sectors)
	want = fixture(t, "blob", got)
	checkBytes(t, "blob", got, want)
	if bid, bs, err := goldenDecodeBlob(want); err != nil {
		t.Errorf("blob: decode: %v", err)
	} else if bid != id || !reflect.DeepEqual(bs, sectors) {
		t.Errorf("blob: decoded id %d sectors %v", bid, bs)
	}
}

// mustAppend appends and syncs, failing the test on any error.
func mustAppend(t *testing.T, l *Log, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if _, err := l.Append(r); err != nil {
			t.Fatalf("Append(%T): %v", r, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

// writeGoldenServiceDir drives a small service history through Log:
// an open set, a restart (whose recovery writes the snapshot), a set
// close, a rebuild (one publish record, which retires the displaced
// member on replay), the first platter of the next set, and a
// WAL rotation whose snapshot never committed — so the directory ends
// with one snapshot, two WAL segments, five live blobs and one orphan
// blob.
func writeGoldenServiceDir(t *testing.T, dir string) {
	t.Helper()
	opts := Options{Dir: dir, Fingerprint: goldenFingerprint}
	sectors := func(b byte) map[media.SectorID][]uint8 {
		return map[media.SectorID][]uint8{{Track: 0, Sector: 1}: {b, b + 1, b + 2}, {Track: 2, Sector: 0}: {b + 3, b + 4, b + 5}}
	}
	blob := func(l *Log, id media.PlatterID) {
		t.Helper()
		writeBlob(t, l, id, sectors(byte(id)*10))
	}
	l, _, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	blob(l, 1)
	mustAppend(t, l,
		&RecPut{Account: "a", Name: "f1", Version: 1, Size: 5, KeyID: "a/f1#k1", Key: []byte("K1"), Arrival: 1.5, Ciphertext: []byte("cipher-f1"), OpSeq: 1},
		&RecPut{Account: "a", Name: "f2", Version: 1, Size: 6, KeyID: "a/f2#k2", Key: []byte("K2"), Arrival: 2.5, Ciphertext: []byte("cipher-f2"), OpSeq: 2},
		&RecPublish{PlatterDesc: PlatterDesc{ID: 1, Set: 0, SetPos: 0, Used: 3}, Reason: "published", AtUnixNano: 1700000000000000001},
		&RecDurable{Account: "a", Name: "f1", Version: 1, Extents: []metadata.Extent{{Platter: 1, FirstSector: 0, SectorCount: 2, Shard: 0}}},
	)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	if l, _, err = Open(opts); err != nil {
		t.Fatal(err)
	}
	blob(l, 2)
	blob(l, 3)
	mustAppend(t, l,
		&RecPublish{PlatterDesc: PlatterDesc{ID: 2, Set: 0, SetPos: 1, Used: 1}, Reason: "published", AtUnixNano: 1700000000000000002},
		&RecDurable{Account: "a", Name: "f2", Version: 1, Extents: []metadata.Extent{{Platter: 2, FirstSector: 0, SectorCount: 1, Shard: 0}}},
		&RecSetClose{Set: 0, Members: []media.PlatterID{1, 2, 3}, Redundancy: 1, Reason: "redundancy", AtUnixNano: 1700000000000000003},
		&RecHealth{Platter: 2, From: int32(repair.Healthy), To: int32(repair.Suspect), Reason: "scrub", AtUnixNano: 1700000000000000004},
	)
	if _, err := l.BeginSnapshot(); err != nil { // rotate; the snapshot never commits
		t.Fatal(err)
	}
	blob(l, 4)
	blob(l, 5)
	blob(l, 9) // orphan: no publish record follows
	mustAppend(t, l,
		&RecPublish{PlatterDesc: PlatterDesc{ID: 4, Set: 0, SetPos: 1, Used: 1}, Reason: "rebuilt from set 0", AtUnixNano: 1700000000000000005},
		&RecPublish{PlatterDesc: PlatterDesc{ID: 5, Set: 1, SetPos: 0, Used: 2}, Reason: "published", AtUnixNano: 1700000000000000006},
		&RecPut{Account: "b", Name: "g", Version: 1, Size: 3, KeyID: "b/g#k3", Key: []byte("K3"), Arrival: 3.5, Ciphertext: []byte("cipher-g"), OpSeq: 3},
		&RecPut{Account: "b", Name: "h", Version: 1, Size: 4, KeyID: "b/h#k4", Key: []byte("K4"), Arrival: 4.5, Ciphertext: []byte("cipher-h"), OpSeq: 4},
		&RecDelete{Account: "b", Name: "g", KeyIDs: []string{"b/g#k3"}},
		&RecRelease{Account: "b", Name: "g", Version: 1},
	)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeGoldenRouterDir is the router counterpart: placements, a
// restart, a kill/rebuild epoch bump, a half-finished and a finished
// delete, a drain, and an uncommitted rotation.
func writeGoldenRouterDir(t *testing.T, dir string) {
	t.Helper()
	opts := Options{Dir: dir, Fingerprint: goldenFingerprint}
	l, _, err := OpenRouter(opts)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l,
		&RecRingConfig{Seed: 42, VNodes: 96},
		&RecMember{Name: "lib-0", Alive: true},
		&RecMember{Name: "lib-1", Alive: true},
		&RecMember{Name: "lib-2", Alive: true},
		&RecDirPlace{Account: "a", Name: "x", Primary: "lib-0", Replica: "lib-1", Version: 1, Size: 100},
		&RecDirPlace{Account: "a", Name: "y", Primary: "lib-1", Replica: "lib-2", Version: 1, Size: 200},
		&RecDirPlace{Account: "b", Name: "z", Primary: "lib-2", Replica: "lib-0", Version: 1, Size: 300},
	)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	if l, _, err = OpenRouter(opts); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l,
		&RecMember{Name: "lib-1", Alive: false},
		&RecMember{Name: "lib-1", Alive: true, Epoch: 1},
		&RecDirPlace{Account: "a", Name: "x", Primary: "lib-0", Replica: "lib-1", REpoch: 1, Version: 2, Size: 150},
		&RecDirTombstone{Account: "a", Name: "y"},
	)
	if _, err := l.BeginSnapshot(); err != nil { // rotate; the snapshot never commits
		t.Fatal(err)
	}
	mustAppend(t, l,
		&RecDirTombstone{Account: "b", Name: "z"},
		&RecDirDelete{Account: "b", Name: "z"},
		&RecMember{Name: "lib-3", Alive: true},
		&RecMemberRemove{Name: "lib-3"},
		&RecDirPlace{Account: "c", Name: "w", Primary: "lib-1", Replica: "lib-2", PEpoch: 1, Version: 1, Size: 9},
	)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// goldenDir returns a scratch copy of testdata/<name>, regenerating
// the committed directory first under -update-golden.
func goldenDir(t *testing.T, name string, write func(*testing.T, string)) string {
	t.Helper()
	src := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.RemoveAll(src); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(src, 0o755); err != nil {
			t.Fatal(err)
		}
		write(t, src)
	}
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// checkDump compares a recovered state, rendered one field per line,
// against testdata/<name>.state and reports the differing fields.
func checkDump(t *testing.T, name string, got []string) {
	t.Helper()
	path := filepath.Join("testdata", name+".state")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(text), "\n"), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got %s\nwant %s", path, i+1, g, w)
		}
	}
}

func dirFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func dumpState(st *State) []string {
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	add("OpSeq %d", st.OpSeq)
	add("NextPlatter %d", st.NextPlatter)
	for _, fd := range st.Meta.Export() {
		for _, v := range fd.Versions {
			add("Meta %q/%q Version %d Size %d State %d WriteTime %v KeyID %q Extents %+v",
				fd.Key.Account, fd.Key.Name, v.Version, v.Size, v.State, v.WriteTime, v.KeyID, v.Extents)
		}
	}
	ids := make([]string, 0, len(st.Keys))
	for id := range st.Keys {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		add("Keys %q = %q", id, st.Keys[id])
	}
	for _, f := range st.Staged {
		add("Staged %q/%q Version %d Size %d Arrival %v Data %q", f.Key.Account, f.Key.Name, f.Version, f.Size, f.Arrival, f.Data)
	}
	for _, p := range st.Platters {
		add("Platters ID %d Set %d SetPos %d Redundancy %v Used %d", p.ID, p.Set, p.SetPos, p.Redundancy, p.Used)
		sectors := blobSectors(p.Blob)
		sids := make([]media.SectorID, 0, len(sectors))
		for sid := range sectors {
			sids = append(sids, sid)
		}
		sort.Slice(sids, func(i, j int) bool {
			if sids[i].Track != sids[j].Track {
				return sids[i].Track < sids[j].Track
			}
			return sids[i].Sector < sids[j].Sector
		})
		for _, sid := range sids {
			add("Platters ID %d Sectors %d/%d = %v", p.ID, sid.Track, sid.Sector, sectors[sid])
		}
	}
	add("Sets %v", st.Sets)
	add("PendingSet %v", st.PendingSet)
	for _, h := range st.Health {
		add("Health Platter %d Health %d", h.Platter, h.Health)
		for _, tr := range h.History {
			add("Health Platter %d History From %q To %q Reason %q At %d", h.Platter, tr.From, tr.To, tr.Reason, tr.At.UnixNano())
		}
	}
	add("Records %d", st.Records)
	add("Truncated %v", st.Truncated)
	return out
}

func dumpRouterState(st *RouterState) []string {
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	add("Seed %d VNodes %d HasConfig %v", st.Seed, st.VNodes, st.HasConfig)
	for _, m := range st.Members {
		add("Members Name %q Alive %v Epoch %d", m.Name, m.Alive, m.Epoch)
	}
	for _, en := range st.Entries {
		add("Entries %q/%q Primary %q Replica %q PEpoch %d REpoch %d Version %d Size %d Deleting %v",
			en.Account, en.Name, en.Primary, en.Replica, en.PEpoch, en.REpoch, en.Version, en.Size, en.Deleting)
	}
	add("Records %d", st.Records)
	add("Truncated %v", st.Truncated)
	return out
}

// TestGoldenDirs opens directories written by the original codec and
// compares everything recovery hands back, then reopens them to check
// the post-recovery snapshot round-trips the same state.
func TestGoldenDirs(t *testing.T) {
	t.Run("service", func(t *testing.T) {
		dir := goldenDir(t, "service-dir", writeGoldenServiceDir)
		if got := dirFiles(t, dir); len(got) != 9 {
			t.Fatalf("fixture holds %v, want 1 snapshot + 2 WAL segments + 6 blobs", got)
		}
		opts := Options{Dir: dir, Fingerprint: goldenFingerprint}
		l, st, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		first := dumpState(st)
		st.CloseBlobs()
		checkDump(t, "service-dir", first)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, blobName(9))); !os.IsNotExist(err) {
			t.Errorf("orphan blob 9 survived recovery (stat err %v)", err)
		}
		l, st, err = Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		defer st.CloseBlobs()
		want := append(first[:len(first)-2:len(first)-2], "Records 0", "Truncated false")
		if got := dumpState(st); !reflect.DeepEqual(got, want) {
			t.Errorf("reopen from the post-recovery snapshot drifted:\n got %q\nwant %q", got, want)
		}
	})
	t.Run("router", func(t *testing.T) {
		dir := goldenDir(t, "router-dir", writeGoldenRouterDir)
		if got := dirFiles(t, dir); len(got) != 3 {
			t.Fatalf("fixture holds %v, want 1 snapshot + 2 WAL segments", got)
		}
		opts := Options{Dir: dir, Fingerprint: goldenFingerprint}
		l, st, err := OpenRouter(opts)
		if err != nil {
			t.Fatal(err)
		}
		first := dumpRouterState(st)
		checkDump(t, "router-dir", first)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, st, err = OpenRouter(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		want := append(first[:len(first)-2:len(first)-2], "Records 0", "Truncated false")
		if got := dumpRouterState(st); !reflect.DeepEqual(got, want) {
			t.Errorf("reopen from the post-recovery snapshot drifted:\n got %q\nwant %q", got, want)
		}
	})
}
