package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// WAL on-disk format. A log file is a fixed header followed by frames:
//
//	header: magic "SILWAL01" | startLSN (8B LE)
//	frame:  length (4B LE) | crc32 (4B LE) | payload
//	payload: lsn (8B LE) | record tag (1B) | record encoding
//
// length covers the payload; crc32 (IEEE) covers the payload. A torn
// tail — short header, short payload, or CRC mismatch — ends replay at
// that frame: everything before it is intact (frames are applied in
// order and appends are acknowledged only after fsync), everything
// from it on was never acknowledged and is discarded. Recovery then
// snapshots immediately, so discarded bytes never linger on disk.
const (
	walMagic     = "SILWAL01"
	walHeaderLen = len(walMagic) + 8
	frameHdrLen  = 8 // length + crc
	// maxFrameLen bounds a frame so a corrupt length field cannot drive
	// a giant allocation. Platter media lives in sidecar blobs, so WAL
	// records are small — the largest is a RecPut carrying one file's
	// ciphertext.
	maxFrameLen = 1 << 30
)

// walFrame is one decoded WAL entry.
type walFrame struct {
	lsn uint64
	rec Record
}

// encodeFrame appends the framed record (with lsn) to dst.
func encodeFrame(dst []byte, lsn uint64, rec Record) []byte {
	hdr := len(dst)
	// 64 bytes hold every record that carries no payload, so only a
	// RecPut's ciphertext regrows the buffer.
	c := coder{buf: append(slices.Grow(dst, 64), make([]byte, frameHdrLen)...)}
	c.buf = binary.LittleEndian.AppendUint64(c.buf, lsn)
	c.buf = append(c.buf, rec.recType())
	rec.wire(&c)
	payload := c.buf[hdr+frameHdrLen:]
	binary.LittleEndian.PutUint32(c.buf[hdr:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(c.buf[hdr+4:], crc32.ChecksumIEEE(payload))
	return c.buf
}

// writeWALHeader starts a fresh log file.
func writeWALHeader(f *os.File, startLSN uint64) error {
	hdr := make([]byte, 0, walHeaderLen)
	hdr = append(hdr, walMagic...)
	hdr = binary.LittleEndian.AppendUint64(hdr, startLSN)
	_, err := f.Write(hdr)
	return err
}

var errNotWAL = errors.New("not a WAL file")

// scanWAL reads every intact frame of one log file; see scanFrames.
func scanWAL(path string, records recordTable) (frames []walFrame, tornAt int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, -1, err
	}
	if frames, tornAt, err = scanFrames(data, records); err != nil {
		err = fmt.Errorf("persist: %s: %w", path, err)
	}
	return frames, tornAt, err
}

// scanFrames decodes a log file's bytes, building record bodies from
// records (each WAL domain — service, cluster router — has its own tag
// space). It returns the frames up to the first torn or corrupt one;
// tornAt reports the byte offset of the damage (-1 when the file ends
// cleanly). Damage is never an error — it is the expected shape of a
// crash mid-append — but a bad header is: that file was never a log.
func scanFrames(data []byte, records recordTable) (frames []walFrame, tornAt int64, err error) {
	if len(data) < walHeaderLen || string(data[:len(walMagic)]) != walMagic {
		return nil, -1, errNotWAL
	}
	off := int64(walHeaderLen)
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return frames, -1, nil // clean end
		}
		if len(rest) < frameHdrLen {
			return frames, off, nil // torn frame header
		}
		length := binary.LittleEndian.Uint32(rest)
		sum := binary.LittleEndian.Uint32(rest[4:])
		if length < 9 || length > maxFrameLen || int(length) > len(rest)-frameHdrLen {
			return frames, off, nil // torn or corrupt length
		}
		payload := rest[frameHdrLen : frameHdrLen+int(length)]
		if crc32.ChecksumIEEE(payload) != sum {
			return frames, off, nil // corrupt frame
		}
		newRec, ok := records[payload[8]]
		if !ok {
			return frames, off, nil // unknown tag: treat as corrupt
		}
		rec := newRec()
		c := coder{buf: payload[9:], decoding: true}
		if rec.wire(&c); c.err != nil {
			return frames, off, nil // record body corrupt
		}
		frames = append(frames, walFrame{lsn: binary.LittleEndian.Uint64(payload), rec: rec})
		off += int64(frameHdrLen) + int64(length)
	}
}

// syncDir fsyncs a directory so renames and creates within it are
// durable. Its error is the caller's: until the directory fsync
// succeeds, the entry it was meant to make durable is not.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: open dir for sync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("persist: sync dir %s: %w", dir, err)
	}
	return nil
}

// atomicWriteFile writes path's contents through write, via a temp
// file in the same directory: write, fsync, rename, fsync dir. Readers
// observe either the old file or the complete new one, never a prefix.
func atomicWriteFile(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return err
	}
	if err := write(tmp); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName)
		return err
	}
	return syncDir(filepath.Dir(path))
}
