package persist

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"slices"

	"silica/internal/media"
)

// Platter sidecar blobs. A platter's sectors are immutable once
// verified — the WORM property — so they are stored as one
// atomically-written file per platter instead of WAL records:
//
//	magic "SILPLT03" | header length (4 bytes LE) | platter id |
//	sectors per track | stride | written bitmap | crc32 | sectors
//
// The header runs from the magic through its CRC32 (IEEE, 4 bytes LE,
// over everything before it), and the fixed-width length, which counts
// all of it, is what a reader needs to find the CRC before it decodes
// anything. A sector is stride bytes the blob does not interpret (the
// voxel layer's packed codeword). Bit track×(sectors per track)+sector
// of the bitmap is set for each written sector; the bitmap is a count of
// uint64 words, each a uvarint, the last one nonzero. The sectors follow
// the header densely in address order, stride bytes each, so a sector's
// offset is the header length plus stride times the written sectors
// before it, which the bitmap and a prefix count per word give in O(1).
//
// Nothing covers the sectors as a whole: every read checks the sector's
// own CRC32 and LDPC parity, so a rotten sector, or one a short file
// lacks, is an unreadable sector that the network-coding hierarchy
// repairs like any other, and opening a blob reads its header only. A
// blob with another magic, those of earlier versions included, is
// refused.
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
const blobMagic = "SILPLT03"

func blobName(id media.PlatterID) string {
	return fmt.Sprintf("platter-%d.plt", id)
}

// platterBlob is a blob's header: the platter and where its sectors lie.
type platterBlob struct {
	id    media.PlatterID
	size  uint32 // the header's length in bytes
	index sectorIndex
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

// header wires the blob's header between its magic and its CRC. The
// encoder writes no trailing empty word, and the CRC follows the bitmap.
func (b *platterBlob) header(c *coder) {
	c.u32(&b.size)
	varint(&b.id, c)
	x := &b.index
	c.int(&x.spt)
	c.int(&x.stride)
	slice(c, &x.words, func(w *uint64, c *coder) { c.u64(w) })
	n := len(x.words)
	if c.decoding && c.err == nil && (x.spt < 1 || x.stride < 0 || n > 0 && x.words[n-1] == 0 || c.remaining() != 0) {
		c.err = errTruncated
	}
}

// locate fills the index's prefix counts and places the sectors right
// after the header.
func (b *platterBlob) locate() {
	x := &b.index
	x.ranks, x.n = make([]uint32, len(x.words)), 0
	for w, word := range x.words {
		x.ranks[w] = uint32(x.n)
		x.n += bits.OnesCount64(word)
	}
	x.at = int64(b.size)
}

// mark walks the sectors once for the bitmap and the one stride every
// sector must have.
func (x *sectorIndex) mark(walk sectorWalk) error {
	x.words, x.stride = nil, 0
	return walk(func(id media.SectorID, data []byte) error {
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
}

// seal encodes the header, its length and CRC in place, and places the
// sectors after it.
func (b *platterBlob) seal() []byte {
	c := &coder{buf: []byte(blobMagic)}
	b.size = 0
	b.header(c)
	b.size = uint32(len(c.buf) + 4)
	binary.LittleEndian.PutUint32(c.buf[len(blobMagic):], b.size)
	b.locate()
	return binary.LittleEndian.AppendUint32(c.buf, crc32.ChecksumIEEE(c.buf))
}

// write writes the blob to w: the header, then each sector straight off
// the walk, through one window from sealBufs.
func (b *platterBlob) write(w io.Writer, walk sectorWalk) error {
	if err := b.index.mark(walk); err != nil {
		return err
	}
	window := getWindow()
	defer putWindow(window)
	c := &coder{buf: window[:0], sink: w}
	put(c, b.seal())
	err := walk(func(_ media.SectorID, data []byte) error {
		put(c, data)
		return c.err
	})
	c.spill()
	return cmp.Or(err, c.err)
}

// readBlobHeader reads and checks the header of a blob of size bytes and
// indexes its sectors, none of which it reads.
func readBlobHeader(f io.ReaderAt, size int64) (platterBlob, error) {
	var b platterBlob
	var fixed [len(blobMagic) + 4]byte
	if _, err := f.ReadAt(fixed[:], 0); err != nil {
		return b, fmt.Errorf("persist: not a %s file: %w", blobMagic, err)
	}
	// A length past the file's end cannot be the header's: what it
	// reads instead fails the checks below.
	head := make([]byte, min(int64(binary.LittleEndian.Uint32(fixed[len(blobMagic):])), size))
	if _, err := f.ReadAt(head, 0); err != nil {
		return b, err
	}
	if err := openFile(blobMagic, head, b.header); err != nil {
		return b, err
	}
	b.locate()
	return b, nil
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
func writeBlobFile(dir string, id media.PlatterID, spt int, walk sectorWalk) (sectorIndex, error) {
	b := platterBlob{id: id, index: sectorIndex{spt: spt}}
	err := atomicWriteFile(filepath.Join(dir, blobName(id)), func(w io.Writer) error {
		return b.write(w, walk)
	})
	return b.index, err
}

// openBlob opens a platter blob in dir and indexes it from its header:
// the descriptor stays open for the Blob, and no sector is read.
func openBlob(dir string, id media.PlatterID) (*Blob, error) {
	f, err := os.Open(filepath.Join(dir, blobName(id)))
	if err != nil {
		return nil, err
	}
	var b platterBlob
	fi, err := f.Stat()
	if err == nil {
		b, err = readBlobHeader(f, fi.Size())
	}
	if err == nil && b.id != id {
		err = fmt.Errorf("persist: platter blob id mismatch: file %d names %d", id, b.id)
	}
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("persist: platter %d blob: %w", id, err)
	}
	return &Blob{f: f, index: b.index}, nil
}
