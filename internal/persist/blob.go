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

// platterBlob is the blob's content. Encoding walks media in address
// order, so the bytes are deterministic; decoding fills sectors. The
// sectors are wired as a count followed by (track, sector, symbols)
// per sector, one byte per symbol.
type platterBlob struct {
	id       media.PlatterID
	media    sectorWalker               // encoding
	sectors  map[media.SectorID][]uint8 // decoding
	payloads [][]byte
}

// sectorWalker is what a blob encodes: a Stored media.Platter.
type sectorWalker interface {
	WrittenSectors() int
	EachSector(fn func(media.SectorID, []uint8) error) error
}

func (b *platterBlob) wire(c *coder) {
	varint(&b.id, c)
	if c.decoding {
		n := c.count(0)
		if c.err == nil {
			b.sectors = make(map[media.SectorID][]uint8, n)
		}
		for i := 0; i < n && c.err == nil; i++ {
			var sid media.SectorID
			var symbols []uint8
			wireSector(c, &sid, &symbols)
			if c.err == nil {
				b.sectors[sid] = symbols
			}
		}
	} else {
		c.count(b.media.WrittenSectors())
		err := b.media.EachSector(func(sid media.SectorID, symbols []uint8) error {
			wireSector(c, &sid, &symbols)
			return c.err
		})
		if c.err == nil {
			c.err = err
		}
	}
	slice(c, &b.payloads, func(p *[]byte, c *coder) { c.bytes(p) })
}

func wireSector(c *coder, sid *media.SectorID, symbols *[]uint8) {
	c.int(&sid.Track)
	c.int(&sid.Sector)
	c.bytes(symbols)
}

// writeBlobFile atomically writes a platter blob into dir.
func writeBlobFile(dir string, id media.PlatterID, m sectorWalker, payloads [][]byte) error {
	b := platterBlob{id: id, media: m, payloads: payloads}
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
