package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// Fuzz targets for every decoder that reads bytes this process did not
// write. Each checks three properties: no input panics; decoding
// allocates no more than a small multiple of the input's length (so a
// corrupt count or length cannot balloon); and whatever decodes
// re-encodes to bytes that decode and re-encode to the same bytes —
// the canonical encoding is a fixed point, NaNs and all.
//
// Seeds are the golden fixtures and the committed service directory's
// log. `make fuzz-smoke` runs each target for ten seconds.

func wireFixture(tb testing.TB, name string) []byte {
	tb.Helper()
	text, err := os.ReadFile(filepath.Join("testdata", "wire", name+".hex"))
	if err != nil {
		tb.Fatal(err)
	}
	data, err := hex.DecodeString(strings.Join(strings.Fields(string(text)), ""))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// boundedAlloc fails the test if decode allocates more than a fixed
// slack plus 256 bytes per input byte. The widest element a one-byte
// count can claim is a RouterEntry at 104 bytes.
func boundedAlloc(t *testing.T, inputLen int, decode func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+256*inputLen); got > limit {
		t.Fatalf("decoding %d bytes allocated %d, limit %d", inputLen, got, limit)
	}
}

// checkSegment scans seg under every record table and, for the frames
// that decode, checks the re-encoding fixed point.
func checkSegment(t *testing.T, seg []byte) {
	t.Helper()
	for _, table := range []recordTable{serviceRecords, routerRecords} {
		var frames []walFrame
		var err error
		boundedAlloc(t, len(seg), func() { frames, _, err = scanFrames(seg, table) })
		if err != nil {
			if len(frames) != 0 {
				t.Fatalf("scan returned %d frames with error %v", len(frames), err)
			}
			continue
		}
		again := append([]byte(nil), seg[:walHeaderLen]...)
		for _, fr := range frames {
			again = encodeFrame(again, fr.lsn, fr.rec)
		}
		frames2, tornAt, err := scanFrames(again, table)
		if err != nil || tornAt != -1 || len(frames2) != len(frames) {
			t.Fatalf("re-encoded segment scans to %d frames (was %d), tornAt %d, err %v", len(frames2), len(frames), tornAt, err)
		}
		third := append([]byte(nil), seg[:walHeaderLen]...)
		for _, fr := range frames2 {
			third = encodeFrame(third, fr.lsn, fr.rec)
		}
		if !bytes.Equal(again, third) {
			t.Fatalf("re-encoding is not a fixed point:\n%x\n%x", again, third)
		}
	}
}

// FuzzScanWAL feeds the input to the frame scanner twice: as a whole
// log file, and as the payload (lsn | tag | body) of one well-formed
// frame, so mutations reach the record bodies without the fuzzer
// having to forge a CRC.
func FuzzScanWAL(f *testing.F) {
	for _, seg := range []string{"wal-service", "wal-router"} {
		f.Add(wireFixture(f, seg))
	}
	// The committed service directory's last segment holds a rebuild's
	// publish, which takes a completed set's position and retires the
	// member it displaces.
	segs, err := filepath.Glob(filepath.Join("testdata", "service-dir", "wal-*.wal"))
	if err != nil || len(segs) == 0 {
		f.Fatalf("no WAL segment in the service directory: %v", err)
	}
	replay, err := os.ReadFile(segs[len(segs)-1])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(replay)
	for _, g := range goldenRecords() {
		f.Add(append(make([]byte, 8), wireFixture(f, "rec-"+g.name)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSegment(t, data)
		seg := append([]byte(walMagic), make([]byte, 8)...)
		seg = binary.LittleEndian.AppendUint32(seg, uint32(len(data)))
		seg = binary.LittleEndian.AppendUint32(seg, crc32.ChecksumIEEE(data))
		checkSegment(t, append(seg, data...))
	})
}

// fuzzSealed fuzzes the body of a sealFile envelope: the harness adds
// the magic and a correct CRC trailer so every input reaches the body
// layout, which fresh() supplies anew for each decode.
func fuzzSealed(f *testing.F, magic, seed string, fresh func() func(*coder)) {
	sealed := wireFixture(f, seed)
	f.Add(sealed[len(magic) : len(sealed)-4])
	f.Fuzz(func(t *testing.T, body []byte) {
		file := append([]byte(magic), body...)
		file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(file))
		first := fresh()
		var err error
		boundedAlloc(t, len(file), func() { err = openFile(magic, file, first) })
		if err != nil {
			return
		}
		again := sealFile(magic, first)
		second := fresh()
		if err := openFile(magic, again, second); err != nil {
			t.Fatalf("re-encoded file does not decode: %v", err)
		}
		if third := sealFile(magic, second); !bytes.Equal(again, third) {
			t.Fatalf("re-encoding is not a fixed point:\n%x\n%x", again, third)
		}
	})
}

func FuzzDecodeSnapshot(f *testing.F) {
	fuzzSealed(f, snapMagic, "snapshot-service", func() func(*coder) {
		var cut uint64
		return wireSnapshot(&cut, new(SnapshotData).wire)
	})
}

func FuzzDecodeRouterSnapshot(f *testing.F) {
	fuzzSealed(f, routerSnapMagic, "snapshot-router", func() func(*coder) {
		var cut uint64
		return wireSnapshot(&cut, new(RouterState).wire)
	})
}

// FuzzDecodeBlob decodes blob headers through the one decoder recovery
// uses, and checks the re-encoding fixed point: decoding only indexes
// where each sector lies, so the header is all there is to re-encode.
// The input is the header's fields, between its fixed-width length and
// its CRC, which the target fills in.
func FuzzDecodeBlob(f *testing.F) {
	blob := wireFixture(f, "blob")
	f.Add(blob[len(blobMagic)+4 : binary.LittleEndian.Uint32(blob[len(blobMagic):])-4])
	f.Fuzz(func(t *testing.T, fields []byte) {
		head := append([]byte(blobMagic), 0, 0, 0, 0)
		head = append(head, fields...)
		binary.LittleEndian.PutUint32(head[len(blobMagic):], uint32(len(head)+4))
		head = binary.LittleEndian.AppendUint32(head, crc32.ChecksumIEEE(head))
		var first platterBlob
		var err error
		boundedAlloc(t, len(head), func() { first, err = readBlobHeader(bytes.NewReader(head), int64(len(head))) })
		if err != nil {
			return
		}
		if first.index.at != int64(len(head)) {
			t.Fatalf("sectors placed at %d, after a %d-byte header", first.index.at, len(head))
		}
		reseal := func(b platterBlob) []byte {
			b.index = sectorIndex{spt: b.index.spt, stride: b.index.stride, words: b.index.words}
			return b.seal()
		}
		again := reseal(first)
		second, err := readBlobHeader(bytes.NewReader(again), int64(len(again)))
		if err != nil {
			t.Fatalf("re-encoded header does not decode: %v", err)
		}
		if second.id != first.id || !reflect.DeepEqual(second.index.words, first.index.words) ||
			second.index.spt != first.index.spt || second.index.stride != first.index.stride {
			t.Fatalf("re-encoded header decodes as %+v, want %+v", second, first)
		}
		if third := reseal(second); !bytes.Equal(again, third) {
			t.Fatalf("re-encoding is not a fixed point:\n%x\n%x", again, third)
		}
	})
}
