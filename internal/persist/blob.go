package persist

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

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
//
// Once written, the blob is the platter's glass: the service shelves the
// platter on it (Blob), and every later read of a sector is one ReadAt
// of the sector's symbols, found through the offsets the layout noted.
const blobMagic = "SILPLT01"

func blobName(id media.PlatterID) string {
	return fmt.Sprintf("platter-%d.plt", id)
}

// platterBlob is the blob's content. Encoding walks media in address
// order, so the bytes are deterministic. The sectors are wired as a
// count followed by (track, sector, symbols) per sector, one byte per
// symbol, and both walks note in sectors where each sector's symbols
// lie in the file; decoding skips the symbols themselves, and the
// payloads too unless keepPayloads asks for them.
type platterBlob struct {
	id           media.PlatterID
	media        sectorWalker // encoding
	sectors      []sectorSpan
	payloads     [][]byte
	keepPayloads bool // decoding: hold the payload cache
}

// sectorWalker is what a blob encodes: a Stored media.Platter.
type sectorWalker interface {
	WrittenSectors() int
	EachSector(fn func(media.SectorID, []uint8) error) error
}

// sectorSpan is where one sector's symbols lie in its blob: 24 bytes
// of index per sector, against its symbols' thousands.
type sectorSpan struct {
	at            int64 // file offset of the first symbol
	track, sector int32
	n             int32 // symbol count
}

// order orders spans by address: track, then sector.
func (s sectorSpan) order(id media.SectorID) int {
	if t := int(s.track); t != id.Track {
		return t - id.Track
	}
	return int(s.sector) - id.Sector
}

func (s sectorSpan) id() media.SectorID {
	return media.SectorID{Track: int(s.track), Sector: int(s.sector)}
}

func (b *platterBlob) wire(c *coder) {
	varint(&b.id, c)
	if c.decoding {
		n := c.count(0)
		b.sectors = make([]sectorSpan, n)
		for i := 0; i < n && c.err == nil; i++ {
			wireSector(c, &b.sectors[i], nil)
			// The encoder writes address order; lookups rely on it.
			if i > 0 && c.err == nil && b.sectors[i-1].order(b.sectors[i].id()) >= 0 {
				c.err = errTruncated
			}
		}
	} else {
		b.sectors = make([]sectorSpan, 0, c.count(b.media.WrittenSectors()))
		err := b.media.EachSector(func(sid media.SectorID, symbols []uint8) error {
			b.sectors = append(b.sectors, sectorSpan{track: int32(sid.Track), sector: int32(sid.Sector)})
			wireSector(c, &b.sectors[len(b.sectors)-1], symbols)
			return c.err
		})
		if c.err == nil {
			c.err = err
		}
	}
	if !c.decoding || b.keepPayloads {
		slice(c, &b.payloads, func(p *[]byte, c *coder) { c.bytes(p) })
		return
	}
	for i, n := 0, c.count(0); i < n && c.err == nil; i++ {
		var at int64
		var l int
		c.span(nil, &at, &l)
	}
}

func wireSector(c *coder, s *sectorSpan, symbols []uint8) {
	varint(&s.track, c)
	varint(&s.sector, c)
	n := int(s.n)
	c.span(symbols, &s.at, &n)
	s.n = int32(n)
}

// Blob is a shelved platter's glass: a read-only descriptor on its blob
// file and where each sector's symbols lie in it. It is the
// media.SectorSource the service shelves a platter on, once the blob is
// durable or at recovery. A read is one ReadAt into the caller's
// buffer; an I/O error or a short read reports the sector unreadable.
type Blob struct {
	f       *os.File
	sectors []sectorSpan // address order
}

// ReadSectorInto reads sector id's symbols into dst's storage, growing
// it only when too small, and returns the filled slice; false when the
// sector was never written or cannot be read.
func (b *Blob) ReadSectorInto(id media.SectorID, dst []uint8) ([]uint8, bool) {
	i, ok := slices.BinarySearchFunc(b.sectors, id, sectorSpan.order)
	if !ok {
		return nil, false
	}
	s := b.sectors[i]
	out := dst[:0]
	if n := int(s.n); cap(out) >= n {
		out = out[:n]
	} else {
		out = make([]uint8, n)
	}
	if _, err := b.f.ReadAt(out, s.at); err != nil {
		return nil, false
	}
	return out, true
}

// WrittenSectors reports how many sectors the blob holds.
func (b *Blob) WrittenSectors() int { return len(b.sectors) }

// Close releases the descriptor; every later read fails.
func (b *Blob) Close() error { return b.f.Close() }

// writeBlobFile atomically writes a platter blob into dir and returns
// where its sectors lie.
func writeBlobFile(dir string, id media.PlatterID, m sectorWalker, payloads [][]byte) ([]sectorSpan, error) {
	b := platterBlob{id: id, media: m, payloads: payloads}
	err := atomicWriteFile(filepath.Join(dir, blobName(id)), func(w io.Writer) error {
		return sealTo(w, blobMagic, b.wire)
	})
	return b.sectors, err
}

// openBlob opens and indexes a platter blob in dir, checking it whole
// without holding it: the descriptor stays open for the Blob, and only
// the payload cache, when keepPayloads asks for it, is decoded into the
// heap.
func openBlob(dir string, id media.PlatterID, keepPayloads bool) (*Blob, [][]byte, error) {
	f, err := os.Open(filepath.Join(dir, blobName(id)))
	if err != nil {
		return nil, nil, err
	}
	b := platterBlob{keepPayloads: keepPayloads}
	fi, err := f.Stat()
	if err == nil {
		err = openStream(blobMagic, f, fi.Size(), b.wire)
	}
	if err == nil && b.id != id {
		err = fmt.Errorf("persist: platter blob id mismatch: file %d names %d", id, b.id)
	}
	if err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("persist: platter %d blob: %w", id, err)
	}
	return &Blob{f: f, sectors: b.sectors}, b.payloads, nil
}
