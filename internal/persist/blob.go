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

// Platter blobs. A platter's blob is its glass, from the burn's first
// sector to the end of its life:
//
//	magic "SILPLT03" | header length (4 bytes LE) | platter id |
//	sectors per track | stride | written bitmap | crc32 | sectors
//
// The header runs from the magic through its CRC32 (IEEE, 4 bytes LE,
// over everything before it), and the fixed-width length, which counts
// all of it, is what a reader needs to find the CRC before it decodes
// anything. A sector is stride bytes the blob does not interpret (the
// voxel layer's packed codeword). Bit track×(sectors per track)+sector
// of the bitmap is set for each sector the blob holds; the bitmap is a
// count of uint64 words, each a uvarint, the last one nonzero. The
// sectors follow the header densely in address order, stride bytes
// each, so a sector's offset is the header length plus stride times the
// sectors before it, which the bitmap and a prefix count per word give
// in O(1).
//
// The header is fixed before the burn starts: the service knows every
// sector it will write. The burn then writes each sector at its offset,
// in any order, and verify and every later read take it back from
// there, through a glassFile: the platter-<id>.plt file with a persist
// directory, an in-memory image of the same bytes without one.
//
// Nothing covers the sectors as a whole: every read checks the sector's
// own CRC32 and LDPC parity, so a rotten sector, or one a short file
// lacks, is an unreadable sector that the network-coding hierarchy
// repairs like any other, and opening a blob reads its header only. A
// blob with another magic, those of earlier versions included, is
// refused.
//
// Publishing a platter makes its blob durable, file and directory
// entry, *before* the platter's RecPublish is appended. Recovery
// therefore treats record-without-blob as fatal corruption (the
// ordering rules it out short of disk damage), while blob-without-record
// is a crash between burn and publish and is garbage-collected. A burn
// that never publishes — a scrap, or a platter a flush drops — removes
// its file (Discard).
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

// sectorIndex is where a blob's n sectors lie: bit k of words is set
// when the blob holds sector k (track×spt + sector), ranks[w] counts the
// bits set in words[:w], and the sectors are stride bytes each from file
// offset at on. It costs 12 bytes per 64 addresses up to the last one
// held.
type sectorIndex struct {
	spt, stride, n int
	at             int64
	words          []uint64
	ranks          []uint32
}

// offset returns the file offset of sector id, or false if the blob
// does not hold it.
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

// glassFile is the seam a blob's bytes go through: an *os.File, or an
// image in memory. Reads and writes at disjoint offsets may run at once.
type glassFile interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Close() error
}

// image is a glassFile in memory, sized for its blob: its bytes are
// what the file's would be.
type image []byte

func (m image) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off >= int64(len(m)) {
		return 0, io.EOF
	}
	if n := copy(p, m[off:]); n < len(p) {
		return n, io.EOF
	}
	return len(p), nil
}

func (m image) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > int64(len(m)) {
		return 0, fmt.Errorf("persist: write of %d bytes at %d past a %d-byte image", len(p), off, len(m))
	}
	return copy(m[off:], p), nil
}

func (image) Sync() error  { return nil }
func (image) Close() error { return nil }

// Blob is a platter's glass: its blob's bytes behind a glassFile and the
// index of its sectors. It is the media.Glass the service burns a
// platter onto and reads it back from, and the one recovery opens. A
// read is one ReadAt into the caller's buffer; an I/O error or a short
// read reports the sector unreadable.
type Blob struct {
	f     glassFile
	path  string // the file's, or "" for an image
	index sectorIndex
}

// laidOut indexes and seals the header of platter id's blob, spt
// sectors per track of stride bytes each, that holds every sector
// sectors marks.
func laidOut(id media.PlatterID, spt, stride int, sectors func(mark func(media.SectorID))) (sectorIndex, []byte) {
	b := platterBlob{id: id, index: sectorIndex{spt: spt, stride: stride}}
	x := &b.index
	sectors(func(s media.SectorID) {
		k := s.Track*spt + s.Sector
		for len(x.words) <= k>>6 {
			x.words = append(x.words, 0)
		}
		x.words[k>>6] |= 1 << (k & 63)
	})
	head := b.seal()
	return b.index, head
}

// NewBlobImage returns an in-memory blob laid out as CreatePlatterBlob
// lays out a file: the glass of a platter when there is no persist
// directory.
func NewBlobImage(id media.PlatterID, spt, stride int, sectors func(mark func(media.SectorID))) *Blob {
	index, head := laidOut(id, spt, stride, sectors)
	m := make(image, index.at+int64(index.n)*int64(stride))
	copy(m, head)
	return &Blob{f: m, index: index}
}

// WriteSector writes sector id's bytes at its offset. A sector the
// header does not hold, or one of another length than its stride, is
// refused.
func (b *Blob) WriteSector(id media.SectorID, data []byte) error {
	at, ok := b.index.offset(id)
	if !ok || len(data) != b.index.stride {
		return fmt.Errorf("persist: blob holds no %d-byte sector %+v", len(data), id)
	}
	_, err := b.f.WriteAt(data, at)
	return err
}

// ReadSectorInto reads sector id's bytes into dst's storage, growing it
// only when too small, and returns the filled slice; false when the
// blob does not hold the sector or cannot read it.
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

// Close releases the file, after which every read fails; an image has
// nothing to release.
func (b *Blob) Close() error { return b.f.Close() }

// Discard closes the blob and removes its file: the glass of a platter
// that will never publish.
func (b *Blob) Discard() error {
	err := b.f.Close()
	if b.path != "" {
		err = cmp.Or(err, os.Remove(b.path))
	}
	return err
}

// openBlob opens a platter blob in dir and indexes it from its header:
// the read-only descriptor stays open for the Blob, and no sector is
// read.
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
