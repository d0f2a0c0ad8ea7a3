package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"silica/internal/media"
	"silica/internal/metadata"
	"silica/internal/repair"
	"silica/internal/staging"
)

// streamBlob is one full TinyGeometry platter's blob: 32 tracks × 10
// sectors of 1344 bytes (2688 four-bit symbols, two a byte) — ≈ 0.43
// MB, many times a 64 KiB buffer.
func streamBlob() (media.PlatterID, map[media.SectorID][]uint8) {
	rng := rand.New(rand.NewPCG(36, 1))
	sectors := make(map[media.SectorID][]uint8, 320)
	for i := 0; i < 320; i++ {
		data := make([]byte, 1344)
		for j := range data {
			data[j] = byte(rng.Uint32())
		}
		sectors[media.SectorID{Track: i / 10, Sector: i % 10}] = data
	}
	return 4242, sectors
}

// streamSnapshot is a service snapshot of ≈ 0.6 MB, several 64 KiB
// buffers: 2000 metadata rows and keys plus 340 KB of staged
// ciphertext, two of whose bodies are each longer than one buffer.
func streamSnapshot() *SnapshotData {
	rng := rand.New(rand.NewPCG(36, 2))
	noise := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		return b
	}
	s := &SnapshotData{OpSeq: 90210, NextPlatter: 4243, Keys: map[string][]byte{}}
	for i := 0; i < 2000; i++ {
		key := metadata.FileKey{Account: fmt.Sprintf("acct-%d", i%7), Name: fmt.Sprintf("object-%05d", i)}
		keyID := fmt.Sprintf("%s/%s#k%d", key.Account, key.Name, i)
		s.Meta = append(s.Meta, metadata.FileDump{Key: key, Versions: []metadata.Version{{
			Version: 1 + i%3, Size: int64(rng.IntN(1 << 20)), State: metadata.Durable,
			WriteTime: float64(i) / 8, KeyID: keyID,
			Extents: []metadata.Extent{{Platter: media.PlatterID(i % 40), FirstSector: i % 256, SectorCount: 1 + i%5}},
		}}})
		s.Keys[keyID] = noise(32)
	}
	for i := 0; i < 4; i++ {
		data := noise(40000 + 30000*i)
		s.Staged = append(s.Staged, &staging.File{
			Key: metadata.FileKey{Account: "staged", Name: fmt.Sprintf("s-%d", i)}, Version: 1,
			Size: int64(len(data)), Arrival: 1.5 * float64(i), Data: data,
		})
	}
	for id := media.PlatterID(0); id < 40; id++ {
		s.Platters = append(s.Platters, PlatterDesc{ID: id, Set: int(id) / 10, SetPos: int(id) % 10, Redundancy: id%10 >= 8, Used: 200})
		s.Health = append(s.Health, HealthDump{Platter: id, Health: repair.Healthy,
			History: []repair.Transition{{To: "healthy", Reason: "published", At: time.Unix(0, 1700000000000000000+int64(id))}}})
	}
	s.Sets = [][]media.PlatterID{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {10, 11, 12, 13, 14, 15, 16, 17, 18, 19}}
	s.PendingSet = []media.PlatterID{20, 21}
	return s
}

// checkPinned asserts a sealed file's length and SHA-256, both taken
// when the file was still rendered whole in memory: streaming it out
// through a bounded buffer, or burning its sectors in place, must not
// move a byte.
func checkPinned(t *testing.T, path string, wantLen int, wantSHA string) []byte {
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

func TestStreamedFilesPinned(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, nil)
	defer l.Close()
	// The burn writes the blob's sectors at their offsets in map order,
	// not address order; opening it reads its header only and indexes
	// what the burn laid out.
	id, sectors := streamBlob()
	written := writeBlob(t, l, id, sectors)
	checkPinned(t, filepath.Join(dir, blobName(id)), 430152,
		"230320ec661aafa995ed6e8eada31f79c5183835e26287f7d5ddd291b682702c")
	blob, err := openBlob(dir, id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(blob.index, written) {
		t.Error("the header indexed the blob differently from the burn's layout")
	}
	if !reflect.DeepEqual(blobSectors(blob), sectors) {
		t.Error("platter blob does not read back as written")
	}
	if err := blob.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := blob.ReadSectorInto(media.SectorID{}, nil); ok {
		t.Error("a closed blob's sector still reads")
	}

	cut, err := l.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap := streamSnapshot()
	if err := l.CommitSnapshot(cut, snap); err != nil {
		t.Fatal(err)
	}
	data := checkPinned(t, filepath.Join(dir, snapName(cut)), 588897,
		"e020d2f794e61225c0a015f3ac913d35e80a66d4ee88d613801a7df1f8c273e9")
	var backCut uint64
	back := new(SnapshotData)
	if err := openFile(snapMagic, data, wireSnapshot(&backCut, back.wire)); err != nil {
		t.Fatal(err)
	}
	if backCut != cut || !reflect.DeepEqual(back, snap) {
		t.Error("snapshot does not read back as written")
	}
}

// failAfter passes the next n bytes through to w and refuses every
// write that reaches past them, counting the refusals.
type failAfter struct {
	w       io.Writer
	n       int
	refused int
}

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) <= f.n {
		f.n -= len(p)
		return f.w.Write(p)
	}
	k, _ := f.w.Write(p[:f.n])
	f.n = 0
	f.refused++
	return k, errDiskFull
}

func TestSealToStreamWriteError(t *testing.T) {
	cut := uint64(7)
	body := wireSnapshot(&cut, streamSnapshot().wire)
	whole := sealFile(snapMagic, body)
	const limit = 3*sealBufSize + 100
	var out bytes.Buffer
	f := &failAfter{w: &out, n: limit}
	if err := sealTo(f, snapMagic, body); !errors.Is(err, errDiskFull) {
		t.Fatalf("sealTo = %v, want %v", err, errDiskFull)
	}
	if f.refused != 1 || !bytes.Equal(out.Bytes(), whole[:limit]) {
		t.Errorf("%d writes refused, %d bytes out; want 1 refused (nothing after it, no trailer) and the file's first %d bytes",
			f.refused, out.Len(), limit)
	}
}

func TestAtomicWriteStreamFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	cut := uint64(7)
	body := wireSnapshot(&cut, streamSnapshot().wire)
	err := atomicWriteFile(filepath.Join(dir, snapName(cut)), func(w io.Writer) error {
		return sealTo(&failAfter{w: w, n: 2 * sealBufSize}, snapMagic, body)
	})
	if !errors.Is(err, errDiskFull) {
		t.Fatalf("atomicWriteFile = %v, want %v", err, errDiskFull)
	}
	if names := dirFiles(t, dir); len(names) != 0 {
		t.Errorf("a failed write left %v behind", names)
	}
}

// TestWriteBlobAlloc gates the heap a blob write costs: the burn
// writes each sector at its offset straight from the caller's buffer,
// and the sector index is a bitmap and a prefix count per 64 sectors, so
// a 0.43 MB blob — created, burned and made durable — allocates at most
// 6 KiB, not the file's size (≈ 6.7 MB when a 1.1 MB one-byte-per-symbol
// blob was rendered whole by append, ≈ 70 KB when each write took a
// fresh 64 KiB window, ≈ 12 KB when the index held 24 B per sector).
func TestWriteBlobAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	l, _ := openT(t, t.TempDir(), nil)
	defer l.Close()
	id, sectors := streamBlob()
	writeBlob(t, l, id, sectors)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	writeBlob(t, l, id+1, sectors)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("a blob write of %d sectors allocated %d B", len(sectors), got)
	if got > 6<<10 {
		t.Errorf("a %d-sector blob write allocated %d B, want at most %d", len(sectors), got, 6<<10)
	}
}

// TestSyncDirReportsErrors: a directory fsync that cannot happen is an
// error the caller sees, never a silent success.
func TestSyncDirReportsErrors(t *testing.T) {
	dir := t.TempDir()
	if err := syncDir(dir); err != nil {
		t.Errorf("syncDir(%s) = %v, want nil", dir, err)
	}
	if err := syncDir(filepath.Join(dir, "missing")); err == nil {
		t.Error("syncDir of a missing directory returned nil")
	}
}
