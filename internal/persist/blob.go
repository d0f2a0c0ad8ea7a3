package persist

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"silica/internal/media"
)

// Platter sidecar blobs. A platter's modulated symbols (and, until its
// set closes, the payload cache needed to encode set redundancy) are
// immutable once verified — the WORM property — so they are stored as
// one atomically-written file per platter instead of WAL records:
//
//	magic "SILPLT01" | platter id | sectors | payloads | crc32 trailer
//
// The blob is written and fsynced *before* the platter's RecPublish is
// appended. Recovery therefore treats record-without-blob as fatal
// corruption (the ordering rules it out short of disk damage), while
// blob-without-record is just a crash between the two steps and is
// garbage-collected.
const blobMagic = "SILPLT01"

func blobName(id media.PlatterID) string {
	return fmt.Sprintf("platter-%d.plt", id)
}

// platterBlob is the blob's content. Sectors are written in address
// order so the encoding is deterministic.
type platterBlob struct {
	id       media.PlatterID
	sectors  map[media.SectorID][]uint8
	payloads [][]byte
}

func (b *platterBlob) wire(c *coder) {
	varint(&b.id, c)
	sortedMap(c, &b.sectors,
		func(x, y media.SectorID) bool {
			if x.Track != y.Track {
				return x.Track < y.Track
			}
			return x.Sector < y.Sector
		},
		func(sid *media.SectorID, symbols *[]uint8, c *coder) {
			c.int(&sid.Track)
			c.int(&sid.Sector)
			c.bytes(symbols)
		})
	slice(c, &b.payloads, func(p *[]byte, c *coder) { c.bytes(p) })
}

// writeBlobFile atomically writes a platter blob into dir.
func writeBlobFile(dir string, id media.PlatterID, sectors map[media.SectorID][]uint8, payloads [][]byte) error {
	b := platterBlob{id, sectors, payloads}
	return atomicWriteFile(filepath.Join(dir, blobName(id)), func(w io.Writer) error {
		return sealTo(w, blobMagic, b.wire)
	})
}

// readBlobFile loads and validates a platter blob from dir.
func readBlobFile(dir string, id media.PlatterID) (map[media.SectorID][]uint8, [][]byte, error) {
	data, err := os.ReadFile(filepath.Join(dir, blobName(id)))
	if err != nil {
		return nil, nil, err
	}
	var b platterBlob
	if err := openFile(blobMagic, data, b.wire); err != nil {
		return nil, nil, fmt.Errorf("persist: platter %d blob: %w", id, err)
	}
	if b.id != id {
		return nil, nil, fmt.Errorf("persist: platter blob id mismatch: file %d names %d", id, b.id)
	}
	return b.sectors, b.payloads, nil
}
