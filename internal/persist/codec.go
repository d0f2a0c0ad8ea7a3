package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"sync"
)

// coder is the one wire codec behind every on-disk layout: WAL record
// bodies, both snapshot formats, platter blobs. A layout is a function
// that names its fields once, in order, by pointer; run over an
// encoding coder it appends them, run over a decoding coder it fills
// them, so a format cannot be written one way and read another. There
// is no reflection: the order of calls in the source is the format.
//
// Wire forms: u64 is a uvarint; i64, int, varint and count are zig-zag
// varints; u32 is 4 bytes and f64 8 bytes, little-endian; bool is one
// byte; bytes and str are a uvarint length followed by that many bytes.
//
// Decoding reads bytes the process may not have written, so it never
// panics and never trusts a length. The first primitive that fails
// sets err; from then on every primitive is a no-op and count returns
// 0, so a corrupt length can neither allocate nor loop. A layout runs
// straight through and its caller checks err once. Encoding only reads
// through the pointers it is given — the values may be live state.
//
// An encoding coder with a sink streams through a fixed window: put
// spills buf to it, so a file of any size costs one window. A decoding
// coder holds its whole input in buf: a WAL record, a snapshot or a
// blob's header, never a blob's sectors.
type coder struct {
	buf      []byte // encoding: the output so far; decoding: the input
	off      int    // decoding: read position in buf
	decoding bool
	err      error
	sink     io.Writer                   // streaming encode: where put spills buf
	tmp      [binary.MaxVarintLen64]byte // one fixed-size field on its way to put
}

// errTruncated marks a decode that ran off the end of its buffer: a
// torn or corrupt frame. Recovery treats it as "discard from here".
var errTruncated = fmt.Errorf("persist: truncated or corrupt encoding")

// remaining is the number of input bytes not yet decoded.
func (c *coder) remaining() int64 { return int64(len(c.buf) - c.off) }

// take returns the next n input bytes, or fails when fewer remain.
func (c *coder) take(n uint64) []byte {
	if c.err != nil || n > uint64(c.remaining()) {
		c.err = errTruncated
		return nil
	}
	b := c.buf[c.off : c.off+int(n)]
	c.off += int(n)
	return b
}

// put appends p to the output. A streaming coder never grows buf: it
// fills the window and spills it to sink as often as p needs, and a
// failed spill sets err.
func put[S string | []byte](c *coder, p S) {
	for c.sink != nil && len(c.buf)+len(p) > cap(c.buf) {
		n := cap(c.buf) - len(c.buf)
		c.buf = append(c.buf, p[:n]...)
		p = p[n:]
		c.spill()
	}
	c.buf = append(c.buf, p...)
}

func (c *coder) spill() {
	if c.err == nil {
		_, c.err = c.sink.Write(c.buf)
	}
	c.buf = c.buf[:0]
}

func (c *coder) u64(v *uint64) {
	if !c.decoding {
		put(c, binary.AppendUvarint(c.tmp[:0], *v))
		return
	}
	if c.err != nil {
		return
	}
	x, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		c.err = errTruncated
		return
	}
	c.off += n
	*v = x
}

func (c *coder) i64(v *int64) {
	if !c.decoding {
		put(c, binary.AppendVarint(c.tmp[:0], *v))
		return
	}
	if c.err != nil {
		return
	}
	x, n := binary.Varint(c.buf[c.off:])
	if n <= 0 {
		c.err = errTruncated
		return
	}
	c.off += n
	*v = x
}

// varint wires any signed integer type in the i64 form. Its argument
// order (value, coder) is that of every free-standing layout function,
// so it can be handed to slice as an element layout.
func varint[T ~int | ~int32 | ~int64](v *T, c *coder) {
	x := int64(*v)
	c.i64(&x)
	if c.decoding {
		*v = T(x)
	}
}

func (c *coder) int(v *int) { varint(v, c) }

func (c *coder) u32(v *uint32) {
	if !c.decoding {
		put(c, binary.LittleEndian.AppendUint32(c.tmp[:0], *v))
	} else if b := c.take(4); b != nil {
		*v = binary.LittleEndian.Uint32(b)
	}
}

func (c *coder) f64(v *float64) {
	if !c.decoding {
		put(c, binary.LittleEndian.AppendUint64(c.tmp[:0], math.Float64bits(*v)))
	} else if b := c.take(8); b != nil {
		*v = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
}

func (c *coder) bool(v *bool) {
	if !c.decoding {
		b := byte(0)
		if *v {
			b = 1
		}
		put(c, append(c.tmp[:0], b))
	} else if b := c.take(1); b != nil {
		*v = b[0] != 0
	}
}

func (c *coder) bytes(v *[]byte) {
	n := uint64(len(*v))
	c.u64(&n)
	if !c.decoding {
		put(c, *v)
	} else if b := c.take(n); c.err == nil {
		*v = append(make([]byte, 0, n), b...)
	}
}

func (c *coder) str(v *string) {
	n := uint64(len(*v))
	c.u64(&n)
	if !c.decoding {
		put(c, *v)
	} else if b := c.take(n); c.err == nil {
		*v = string(b)
	}
}

// count wires a collection's length and returns how many elements the
// caller should visit: n when encoding, the stored length when
// decoding. Every element costs at least one byte, so a stored length
// that is negative or exceeds the bytes remaining is corrupt.
func (c *coder) count(n int) int {
	x := int64(n)
	c.i64(&x)
	if c.decoding && (c.err != nil || x < 0 || x > c.remaining()) {
		c.err = errTruncated
		return 0
	}
	return int(x)
}

// slice wires a counted sequence; elem is one element's layout.
func slice[T any](c *coder, s *[]T, elem func(*T, *coder)) {
	n := c.count(len(*s))
	if c.decoding {
		if c.err != nil {
			return
		}
		*s = make([]T, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		elem(&(*s)[i], c)
	}
}

// sortedMap wires a map as a counted sequence of entries. Encoding
// visits keys in ascending order so the bytes are deterministic;
// decoding accepts whatever order it finds.
func sortedMap[K comparable, V any](c *coder, m *map[K]V, less func(a, b K) bool, entry func(*K, *V, *coder)) {
	var keys []K
	if !c.decoding {
		keys = make([]K, 0, len(*m))
		for k := range *m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
	}
	n := c.count(len(keys))
	if c.decoding {
		if c.err != nil {
			return
		}
		*m = make(map[K]V, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		var k K
		var v V
		if !c.decoding {
			k, v = keys[i], (*m)[keys[i]]
		}
		entry(&k, &v, c)
		if c.decoding && c.err == nil {
			(*m)[k] = v
		}
	}
}

// Snapshots and platter blob headers share one envelope:
//
//	magic (8 bytes) | body | crc32 (IEEE, 4B LE, over magic and body)
//
// sealTo streams it to w through one sealBufSize window, feeding each
// spilled chunk to a running CRC, and writes the trailer only once the
// whole body is out; openFile refuses anything whose magic or CRC is
// off before a single body byte is decoded. A blob's sectors follow its
// header outside the envelope (see blob.go), each written at its own
// offset. A window comes from sealBufs and goes back once the file is
// out: a streaming coder never grows it, and nothing written keeps a
// reference to it. sealBufs is a free list, not a sync.Pool: a window is
// made only when the list is empty, so it never holds more than the peak
// number of files written at once, and a collection cannot empty it.
const sealBufSize = 64 << 10

var sealBufs struct {
	mu   sync.Mutex
	free [][]byte
}

func getWindow() []byte {
	sealBufs.mu.Lock()
	defer sealBufs.mu.Unlock()
	if n := len(sealBufs.free) - 1; n >= 0 {
		w := sealBufs.free[n]
		sealBufs.free = sealBufs.free[:n]
		return w
	}
	return make([]byte, 0, sealBufSize)
}

func putWindow(w []byte) {
	sealBufs.mu.Lock()
	sealBufs.free = append(sealBufs.free, w)
	sealBufs.mu.Unlock()
}

func sealTo(w io.Writer, magic string, body func(*coder)) error {
	window := getWindow()
	defer putWindow(window)
	crc := crc32.NewIEEE()
	c := &coder{buf: append(window[:0], magic...), sink: io.MultiWriter(crc, w)}
	body(c)
	c.spill()
	c.buf = binary.LittleEndian.AppendUint32(c.buf, crc.Sum32())
	c.spill() // a no-op after a failed write: no trailer
	return c.err
}

func openFile(magic string, data []byte, body func(*coder)) error {
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != magic {
		return fmt.Errorf("persist: not a %s file", magic)
	}
	sealed, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(sealed) != binary.LittleEndian.Uint32(trailer) {
		return fmt.Errorf("persist: %s file CRC mismatch", magic)
	}
	c := &coder{buf: sealed, off: len(magic), decoding: true}
	body(c)
	return c.err
}
