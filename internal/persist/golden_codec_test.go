package persist

import (
	"bytes"
	"testing"

	"silica/internal/media"
)

// The golden tests reach the codec only through these adapters, so
// golden_test.go and testdata/ stay byte-for-byte unchanged when the
// codec's internals are renamed or restructured.

// goldenEncodeRecord returns the record's tag followed by its body:
// what a WAL frame carries after the LSN.
func goldenEncodeRecord(r Record) []byte {
	c := coder{buf: []byte{r.recType()}}
	r.wire(&c)
	return c.buf
}

// goldenDecodeRecord parses tag+body through whichever record table
// owns the tag.
func goldenDecodeRecord(data []byte) (Record, error) {
	newRec, ok := serviceRecords[data[0]]
	if !ok {
		if newRec, ok = routerRecords[data[0]]; !ok {
			return nil, errTruncated
		}
	}
	rec := newRec()
	c := coder{buf: data[1:], decoding: true}
	rec.wire(&c)
	return rec, c.err
}

// goldenScanWAL scans one log file with the service or router table.
func goldenScanWAL(path string, router bool) ([]walFrame, int64, error) {
	if router {
		return scanWAL(path, routerRecords)
	}
	return scanWAL(path, serviceRecords)
}

func goldenEncodeSnapshot(cut uint64, fingerprint string, s *SnapshotData) []byte {
	s.Fingerprint = fingerprint
	return sealFile(snapMagic, wireSnapshot(&cut, s.wire))
}

func goldenDecodeSnapshot(data []byte) (cut uint64, fingerprint string, s *SnapshotData, err error) {
	s = &SnapshotData{}
	err = openFile(snapMagic, data, wireSnapshot(&cut, s.wire))
	return cut, s.Fingerprint, s, err
}

func goldenEncodeRouterSnapshot(cut uint64, fingerprint string, s *RouterState) []byte {
	s.Fingerprint = fingerprint
	return sealFile(routerSnapMagic, wireSnapshot(&cut, s.wire))
}

func goldenDecodeRouterSnapshot(data []byte) (cut uint64, fingerprint string, s *RouterState, err error) {
	s = &RouterState{}
	err = openFile(routerSnapMagic, data, wireSnapshot(&cut, s.wire))
	return cut, s.Fingerprint, s, err
}

// goldenSPT is the blob fixtures' sectors per track, TinyGeometry's.
var goldenSPT = media.TinyGeometry().SectorsPerTrack()

func goldenEncodeBlob(id media.PlatterID, sectors map[media.SectorID][]uint8) []byte {
	b := NewBlobImage(id, goldenSPT, sectorMap(sectors).stride(), sectorMap(sectors).layout)
	burn(b, sectors)
	return b.f.(image)
}

// writeBlob burns platter id's blob of sectors into l's directory
// and makes it durable, as a publish does.
func writeBlob(t testing.TB, l *Log, id media.PlatterID, sectors map[media.SectorID][]uint8) sectorIndex {
	t.Helper()
	b, err := l.CreatePlatterBlob(id, goldenSPT, sectorMap(sectors).stride(), sectorMap(sectors).layout)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	burn(b, sectors)
	if err := l.SyncPlatterBlob(b); err != nil {
		t.Fatal(err)
	}
	return b.index
}

// burn writes every sector onto b, in map order.
func burn(b *Blob, sectors map[media.SectorID][]uint8) {
	for id, data := range sectors {
		if err := b.WriteSector(id, data); err != nil {
			panic(err) // the blob was laid out for exactly these sectors
		}
	}
}

// sectorMap is sectors that are on no media.Platter: the fixtures', and
// those a decoded file holds, whose addresses need not fit a platter
// geometry.
type sectorMap map[media.SectorID][]uint8

// layout marks every sector m holds, for a blob laid out for m.
func (m sectorMap) layout(mark func(media.SectorID)) {
	for id := range m {
		mark(id)
	}
}

// stride is the length of m's sectors, which share one.
func (m sectorMap) stride() int {
	for _, data := range m {
		return len(data)
	}
	return 0
}

func goldenDecodeBlob(data []byte) (media.PlatterID, map[media.SectorID][]uint8, error) {
	b, err := readBlobHeader(bytes.NewReader(data), int64(len(data)))
	return b.id, indexSectors(b.index, func(id media.SectorID, at int64) []byte {
		return data[at : at+int64(b.index.stride)]
	}), err
}

// indexSectors maps every sector a blob index holds to what read gives
// for it at its file offset.
func indexSectors(x sectorIndex, read func(media.SectorID, int64) []byte) sectorMap {
	m := make(sectorMap, x.n)
	for k := range len(x.words) * 64 {
		id := media.SectorID{Track: k / x.spt, Sector: k % x.spt}
		if at, ok := x.offset(id); ok {
			m[id] = read(id, at)
		}
	}
	return m
}

// blobSectors reads every sector of an opened blob back through its
// index; a sector it cannot read maps to nil.
func blobSectors(b *Blob) map[media.SectorID][]uint8 {
	return indexSectors(b.index, func(id media.SectorID, _ int64) []byte {
		data, _ := b.ReadSectorInto(id, nil)
		return data
	})
}

// sealFile renders a sealed file whole, for the golden and fuzz tests.
func sealFile(magic string, body func(*coder)) []byte {
	var b bytes.Buffer
	if err := sealTo(&b, magic, body); err != nil {
		panic(err) // a bytes.Buffer write cannot fail
	}
	return b.Bytes()
}

// goldenMember and goldenEntry build router snapshot rows.
func goldenMember(m RecMember) RouterMember { return m }

func goldenEntry(p RecDirPlace, deleting bool) RouterEntry {
	return RouterEntry{RecDirPlace: p, Deleting: deleting}
}
