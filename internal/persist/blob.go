package persist

import (
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"slices"

	"silica/internal/media"
)

// Platter sidecar blobs. A platter's sectors (and, until its set
// closes, the payload cache needed to encode set redundancy) are
// immutable once verified — the WORM property — so they are stored as
// one atomically-written file per platter instead of WAL records:
//
//	magic "SILPLT02" | platter id | sectors per track | stride |
//	written bitmap | sectors | payloads | crc32 trailer
//
// A sector is stride bytes the blob does not interpret (the voxel
// layer's packed codeword). Bit track×(sectors per track)+sector of the
// bitmap is set for each written sector; the bitmap is a count of uint64
// words, each a uvarint, the last one nonzero. The sectors
// follow it densely in address order, stride bytes each, so a sector's
// offset is the first sector's plus stride times the written sectors
// before it, which the bitmap and a prefix count per word give in O(1).
// A blob with another magic, the one-byte-per-symbol "SILPLT01" of
// earlier versions included, is refused.
//
// The blob is written and fsynced *before* the platter's RecPublish is
// appended. Recovery therefore treats record-without-blob as fatal
// corruption (the ordering rules it out short of disk damage), while
// blob-without-record is just a crash between the two steps and is
// garbage-collected.
//
// Once written, the blob is the platter's glass: the service shelves the
// platter on it (Blob), and every later read of a sector is one ReadAt
// at the offset its index gives.
const blobMagic = "SILPLT02"

func blobName(id media.PlatterID) string {
	return fmt.Sprintf("platter-%d.plt", id)
}

// platterBlob is the blob's content. Encoding walks media in address
// order, so the bytes are deterministic; both walks fill index, and
// decoding skips the sectors themselves, and the payloads too unless
// keepPayloads asks for them. An encoding blob's index.spt is set by
// its maker.
type platterBlob struct {
	id           media.PlatterID
	eachSector   sectorWalk // encoding: the sectors, in address order
	index        sectorIndex
	payloads     [][]byte
	keepPayloads bool // decoding: hold the payload cache
}

// sectorWalk is what a blob encodes: a Stored media.Platter's EachSector.
type sectorWalk func(fn func(media.SectorID, []byte) error) error

// sectorIndex is where a blob's n sectors lie: bit k of words is set
// when sector k (track×spt + sector) was written, ranks[w] counts the
// bits set in words[:w], and the sectors are stride bytes each from file
// offset at on. It costs 12 bytes per 64 addresses up to the last one
// written.
type sectorIndex struct {
	spt, stride, n int
	at             int64
	words          []uint64
	ranks          []uint32
}

// offset returns the file offset of sector id, or false if it was not
// written.
func (x *sectorIndex) offset(id media.SectorID) (int64, bool) {
	if uint(id.Sector) >= uint(x.spt) || uint(id.Track) > uint(len(x.words)*64/x.spt) {
		return 0, false
	}
	k := id.Track*x.spt + id.Sector
	w, bit := k>>6, uint64(1)<<(k&63)
	if w >= len(x.words) || x.words[w]&bit == 0 {
		return 0, false
	}
	rank := int(x.ranks[w]) + bits.OnesCount64(x.words[w]&(bit-1))
	return x.at + int64(rank)*int64(x.stride), true
}

func (b *platterBlob) wire(c *coder) {
	varint(&b.id, c)
	x := &b.index
	if !c.decoding {
		// The first walk sets the bitmap and the one stride every
		// sector must have.
		x.words, x.stride = nil, 0
		err := b.eachSector(func(id media.SectorID, data []byte) error {
			if len(x.words) == 0 {
				x.stride = len(data)
			} else if len(data) != x.stride {
				return fmt.Errorf("persist: sector %+v is %d bytes, the blob's are %d", id, len(data), x.stride)
			}
			k := id.Track*x.spt + id.Sector
			for len(x.words) <= k>>6 {
				x.words = append(x.words, 0)
			}
			x.words[k>>6] |= 1 << (k & 63)
			return nil
		})
		if err != nil {
			c.err = err
			return
		}
	}
	c.int(&x.spt)
	c.int(&x.stride)
	slice(c, &x.words, func(w *uint64, c *coder) { c.u64(w) })
	n := len(x.words)
	if c.decoding && c.err == nil && (x.spt < 1 || x.stride < 0 || n > 0 && x.words[n-1] == 0) {
		c.err = errTruncated // the encoder writes no trailing empty word
	}
	if c.err != nil {
		return
	}
	x.ranks, x.n = make([]uint32, n), 0
	for w, word := range x.words {
		x.ranks[w] = uint32(x.n)
		x.n += bits.OnesCount64(word)
	}
	x.at = c.pos()
	if c.decoding {
		if x.stride > 0 && int64(x.n) > c.remaining()/int64(x.stride) {
			c.err = errTruncated
		} else {
			c.skip(uint64(x.n) * uint64(x.stride))
		}
	} else {
		err := b.eachSector(func(_ media.SectorID, data []byte) error {
			put(c, data)
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
		var l uint64
		c.u64(&l)
		c.skip(l)
	}
}

// Blob is a shelved platter's glass: a read-only descriptor on its blob
// file and the index of its sectors. It is the media.SectorSource the
// service shelves a platter on, once the blob is durable or at
// recovery. A read is one ReadAt into the caller's buffer; an I/O error
// or a short read reports the sector unreadable.
type Blob struct {
	f     *os.File
	index sectorIndex
}

// ReadSectorInto reads sector id's bytes into dst's storage, growing it
// only when too small, and returns the filled slice; false when the
// sector was never written or cannot be read.
func (b *Blob) ReadSectorInto(id media.SectorID, dst []byte) ([]byte, bool) {
	at, ok := b.index.offset(id)
	if !ok {
		return nil, false
	}
	out := slices.Grow(dst[:0], b.index.stride)[:b.index.stride]
	if _, err := b.f.ReadAt(out, at); err != nil {
		return nil, false
	}
	return out, true
}

// WrittenSectors reports how many sectors the blob holds.
func (b *Blob) WrittenSectors() int { return b.index.n }

// Close releases the descriptor; every later read fails.
func (b *Blob) Close() error { return b.f.Close() }

// writeBlobFile atomically writes a platter blob of spt sectors per
// track into dir and returns where its sectors lie.
func writeBlobFile(dir string, id media.PlatterID, spt int, walk sectorWalk, payloads [][]byte) (sectorIndex, error) {
	b := platterBlob{id: id, eachSector: walk, index: sectorIndex{spt: spt}, payloads: payloads}
	err := atomicWriteFile(filepath.Join(dir, blobName(id)), func(w io.Writer) error {
		return sealTo(w, blobMagic, b.wire)
	})
	return b.index, err
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
	return &Blob{f: f, index: b.index}, b.payloads, nil
}
