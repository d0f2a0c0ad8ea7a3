package persist

import (
	"bytes"
	"sort"

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

func goldenEncodeBlob(id media.PlatterID, sectors map[media.SectorID][]uint8, payloads [][]byte) []byte {
	b := platterBlob{id: id, media: sectorMap(sectors), payloads: payloads}
	return sealFile(blobMagic, b.wire)
}

// sectorMap feeds the blob encoder sectors a packed media.Platter
// cannot hold: the blob and service-directory fixtures mix symbol
// counts within one platter and, in the directory, use symbol values
// past 15. It walks them in address order, as media.Platter does.
type sectorMap map[media.SectorID][]uint8

func (m sectorMap) WrittenSectors() int { return len(m) }

func (m sectorMap) EachSector(fn func(media.SectorID, []uint8) error) error {
	ids := make([]media.SectorID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Track != ids[j].Track {
			return ids[i].Track < ids[j].Track
		}
		return ids[i].Sector < ids[j].Sector
	})
	for _, id := range ids {
		if err := fn(id, m[id]); err != nil {
			return err
		}
	}
	return nil
}

func goldenDecodeBlob(data []byte) (media.PlatterID, map[media.SectorID][]uint8, [][]byte, error) {
	b := platterBlob{keepPayloads: true}
	err := openFile(blobMagic, data, b.wire)
	return b.id, spanSectors(data, b.sectors), b.payloads, err
}

// spanSectors cuts the sectors a blob layout indexed out of the file's
// bytes.
func spanSectors(file []byte, spans []sectorSpan) sectorMap {
	m := make(sectorMap, len(spans))
	for _, s := range spans {
		m[s.id()] = file[s.at : s.at+int64(s.n)]
	}
	return m
}

// blobSectors reads every sector of an opened blob back through its
// index; a sector it cannot read maps to nil.
func blobSectors(b *Blob) map[media.SectorID][]uint8 {
	m := make(map[media.SectorID][]uint8, len(b.sectors))
	for _, s := range b.sectors {
		m[s.id()], _ = b.ReadSectorInto(s.id(), nil)
	}
	return m
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
