package persist

import "silica/internal/media"

// The golden tests reach the codec only through these adapters, so
// golden_test.go and testdata/ stay byte-for-byte unchanged when the
// codec's internals are renamed or restructured.

// goldenEncodeRecord returns the record's tag followed by its body:
// what a WAL frame carries after the LSN.
func goldenEncodeRecord(r Record) []byte {
	e := enc{buf: []byte{r.recType()}}
	r.encode(&e)
	return e.buf
}

// goldenDecodeRecord parses tag+body through whichever record table
// owns the tag.
func goldenDecodeRecord(data []byte) (Record, error) {
	rec, err := newRecord(data[0])
	if err != nil {
		if rec, err = newRouterRecord(data[0]); err != nil {
			return nil, err
		}
	}
	return rec, rec.decode(&dec{buf: data[1:]})
}

// goldenScanWAL scans one log file with the service or router table.
func goldenScanWAL(path string, router bool) ([]walFrame, int64, error) {
	table := newRecord
	if router {
		table = newRouterRecord
	}
	frames, _, tornAt, err := scanWAL(path, table)
	return frames, tornAt, err
}

func goldenEncodeSnapshot(cut uint64, fingerprint string, s *SnapshotData) []byte {
	s.Fingerprint = fingerprint
	return encodeSnapshot(cut, s)
}

func goldenDecodeSnapshot(data []byte) (uint64, string, *SnapshotData, error) {
	cut, s, err := decodeSnapshot(data)
	if err != nil {
		return 0, "", nil, err
	}
	return cut, s.Fingerprint, s, nil
}

func goldenEncodeRouterSnapshot(cut uint64, fingerprint string, s *RouterState) []byte {
	s.Fingerprint = fingerprint
	return encodeRouterSnapshot(cut, s)
}

func goldenDecodeRouterSnapshot(data []byte) (uint64, string, *RouterState, error) {
	cut, s, err := decodeRouterSnapshot(data)
	if err != nil {
		return 0, "", nil, err
	}
	return cut, s.Fingerprint, s, nil
}

func goldenEncodeBlob(id media.PlatterID, sectors map[media.SectorID][]uint8, payloads [][]byte) []byte {
	return encodeBlob(id, sectors, payloads)
}

func goldenDecodeBlob(data []byte) (media.PlatterID, map[media.SectorID][]uint8, [][]byte, error) {
	return decodeBlob(data)
}

// goldenMember and goldenEntry build router snapshot rows.
func goldenMember(m RecMember) RouterMember {
	return RouterMember{Name: m.Name, Alive: m.Alive, Epoch: m.Epoch}
}

func goldenEntry(p RecDirPlace, deleting bool) RouterEntry {
	return RouterEntry{
		Account: p.Account, Name: p.Name, Primary: p.Primary, Replica: p.Replica,
		PEpoch: p.PEpoch, REpoch: p.REpoch, Version: p.Version, Size: p.Size,
		Deleting: deleting,
	}
}
