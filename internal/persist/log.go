// Package persist is the durability subsystem: an append-only,
// CRC-framed write-ahead log plus periodic atomic snapshots covering
// the service's four in-memory authorities (metadata store, platter
// index, staging tier, health registry). Mutating paths append a typed
// record and fsync *before* acknowledging; recovery replays the newest
// valid snapshot plus the WAL tail into a bit-identical state.
//
// Crash-consistency argument, in brief:
//
//  1. Order. Every record is appended before its mutation is visible
//     (a failed append leaves memory as recovery rebuilds it), and
//     fsynced before the ack: "acknowledged" implies "record durable".
//  2. Fuzzy snapshots. BeginSnapshot rotates the WAL at a cut LSN
//     before the state is exported, and the caller keeps the cut from
//     falling between a record and its mutation, so any record with
//     lsn <= cut had its mutation applied before the export began and
//     is therefore captured by it. Records with lsn > cut survive
//     in the new WAL file and replay over the snapshot; replay is
//     idempotent (overwrite/converge semantics per record), so a
//     mutation both captured and replayed converges.
//  3. Torn tails. A frame that fails its length or CRC check ends
//     replay at that byte offset. Everything before it was written in
//     order and is intact; everything from it on was never
//     acknowledged (fsync covers the log prefix) and is discarded.
//     Open then snapshots immediately, so discarded bytes never
//     survive on disk.
//  4. Platter media. Sector bytes live in per-platter blobs, burned
//     in place and fsynced before the record that publishes them, so
//     record-implies-blob; a blob without a record is a crash between
//     burn and publish and is garbage-collected at recovery.
package persist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"silica/internal/faults"
	"silica/internal/media"
	"silica/internal/obs"
)

// ErrCrashed is returned by every operation after a kill point froze
// the log: the process is pretending to be dead, so nothing more
// becomes durable and nothing more is acknowledged.
var ErrCrashed = errors.New("persist: log frozen by crash point")

// ErrClosed is returned after Close.
var ErrClosed = errors.New("persist: log closed")

// Options configures Open.
type Options struct {
	// Dir is the persistence directory (created if absent).
	Dir string
	// Fingerprint names the codec configuration; a directory written
	// under a different fingerprint refuses to open.
	Fingerprint string
	// Faults, when non-nil, arms the persist.append / persist.sync
	// injection points (and their kill hooks).
	Faults *faults.Injector
	// Metrics, when non-nil, registers the persist instrument families.
	Metrics *obs.Registry
}

type logMetrics struct {
	appends   *obs.Counter
	bytes     *obs.Counter
	syncs     *obs.Counter
	fsync     *obs.Histogram
	snapshots *obs.Counter
	replayed  *obs.Counter
	recovery  *obs.Gauge
	truncated *obs.Gauge
}

func newLogMetrics(reg *obs.Registry, since func() int64) *logMetrics {
	if reg == nil {
		return nil
	}
	m := &logMetrics{
		appends:   reg.Counter("silica_persist_wal_appends_total", "WAL records appended."),
		bytes:     reg.Counter("silica_persist_wal_bytes_total", "WAL bytes appended (framing included)."),
		syncs:     reg.Counter("silica_persist_wal_syncs_total", "WAL fsync batches (group commit: one batch acks many appends)."),
		fsync:     reg.Histogram("silica_persist_fsync_seconds", "WAL fsync latency.", obs.DurationBuckets()),
		snapshots: reg.Counter("silica_persist_snapshots_total", "Snapshots committed."),
		replayed:  reg.Counter("silica_persist_replayed_records_total", "WAL records replayed during recovery."),
		recovery:  reg.Gauge("silica_persist_recovery_seconds", "Duration of the last recovery (snapshot load + WAL replay)."),
		truncated: reg.Gauge("silica_persist_recovery_truncated", "1 if the last recovery discarded a torn or corrupt WAL tail, else 0."),
	}
	gauge := reg.Gauge("silica_persist_appends_since_snapshot", "WAL records appended since the last snapshot.")
	reg.OnScrape(func() { gauge.Set(float64(since())) })
	return m
}

// Log is the write-ahead log plus snapshot manager for one persistence
// directory. Append/Sync are safe for concurrent use; BeginSnapshot/
// CommitSnapshot are serialized by the caller (the service's flush
// loop).
type Log struct {
	dir         string
	fingerprint string
	faults      *faults.Injector
	m           *logMetrics
	truncated   bool // recovery stopped at a torn or corrupt frame

	// frozen is the in-process kill switch: once set, no buffered byte
	// reaches the file and every operation fails, exactly as if the
	// process had died at the kill point. Atomic so the faults kill
	// hook can set it while an Append holds mu.
	frozen    atomic.Bool
	synced    atomic.Uint64 // highest LSN known durable
	sinceSnap atomic.Int64

	mu      sync.Mutex // guards file, writer, nextLSN, frame
	f       *os.File
	w       *bufio.Writer
	nextLSN uint64
	closed  bool
	frame   []byte // Append's encode buffer, reused across records

	// syncMu serializes fsync batches (group commit) and WAL rotation.
	// Lock order: syncMu before mu.
	syncMu sync.Mutex
}

func walName(startLSN uint64) string {
	return fmt.Sprintf("wal-%016x.wal", startLSN)
}

// createWAL starts a new log file whose first record will carry
// startLSN, durably (file and directory fsynced).
func createWAL(dir string, startLSN uint64) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, walName(startLSN)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := writeWALHeader(f, startLSN); err != nil {
		_ = f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		_ = f.Close()
		return nil, err
	}
	return f, nil
}

// dirListing is what recovery finds on disk.
type dirListing struct {
	snaps []uint64 // snapshot cut LSNs, ascending
	wals  []uint64 // WAL start LSNs, ascending
	blobs []media.PlatterID
}

func listDir(dir string) (dirListing, error) {
	var l dirListing
	entries, err := os.ReadDir(dir)
	if err != nil {
		return l, err
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, ".tmp-"):
			// Leftover from an interrupted atomic write; never renamed,
			// so never observable state.
			_ = os.Remove(filepath.Join(dir, name))
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".db"):
			if v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".db"), 16, 64); err == nil {
				l.snaps = append(l.snaps, v)
			}
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".wal"):
			if v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".wal"), 16, 64); err == nil {
				l.wals = append(l.wals, v)
			}
		case strings.HasPrefix(name, "platter-") && strings.HasSuffix(name, ".plt"):
			if v, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "platter-"), ".plt"), 10, 64); err == nil {
				l.blobs = append(l.blobs, media.PlatterID(v))
			}
		}
	}
	sort.Slice(l.snaps, func(i, j int) bool { return l.snaps[i] < l.snaps[j] })
	sort.Slice(l.wals, func(i, j int) bool { return l.wals[i] < l.wals[j] })
	return l, nil
}

// maxKeptFrame bounds the encode buffer a Log keeps between appends, so
// one large RecPut does not pin its ciphertext's size for good.
const maxKeptFrame = 1 << 20

// Append buffers one record and returns its LSN. The record is not
// durable until Sync returns; callers must not acknowledge before
// then. The armed persist.append fault point sees the framed bytes
// (partial mode corrupts them in flight — silent media damage — and
// kill mode freezes the log before the frame is buffered).
func (l *Log) Append(rec Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.frozen.Load() {
		return 0, ErrCrashed
	}
	if l.closed {
		return 0, ErrClosed
	}
	lsn := l.nextLSN
	frame := encodeFrame(l.frame[:0], lsn, rec)
	if cap(frame) <= maxKeptFrame {
		l.frame = frame
	}
	if err := l.faults.CheckData(faults.OpPersistAppend, -1, -1, -1, frame); err != nil {
		return 0, err
	}
	if l.frozen.Load() { // kill hook may have fired without erroring
		return 0, ErrCrashed
	}
	if _, err := l.w.Write(frame); err != nil {
		return 0, err
	}
	l.nextLSN++
	l.sinceSnap.Add(1)
	if l.m != nil {
		l.m.appends.Inc()
		l.m.bytes.Add(int64(len(frame)))
	}
	return lsn, nil
}

// Sync makes every record appended so far durable. Concurrent callers
// group-commit: whichever enters first flushes and fsyncs for all of
// them, the rest observe the advanced watermark and return without
// touching the disk.
func (l *Log) Sync() error {
	if l.frozen.Load() {
		return ErrCrashed
	}
	if err := l.faults.Check(faults.OpPersistSync, -1, -1, -1); err != nil {
		return err
	}
	l.mu.Lock()
	target := l.nextLSN - 1
	l.mu.Unlock()
	if l.synced.Load() >= target {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.synced.Load() >= target {
		return nil
	}
	l.mu.Lock()
	if l.frozen.Load() {
		l.mu.Unlock()
		return ErrCrashed
	}
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	err := l.w.Flush()
	covered := l.nextLSN - 1
	f := l.f
	l.mu.Unlock()
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := f.Sync(); err != nil {
		return err
	}
	if l.m != nil {
		l.m.syncs.Inc()
		l.m.fsync.Observe(time.Since(t0).Seconds())
	}
	l.synced.Store(covered)
	return nil
}

// BeginSnapshot opens the rotate-first snapshot protocol: it makes the
// current WAL durable, rotates to a fresh file, and returns the cut
// LSN. The caller then exports the live state — traffic may continue —
// and hands it to CommitSnapshot. A caller that keeps the cut from
// falling between a record and its mutation has applied every record
// with lsn <= cut, so the export reflects them; records racing the
// export land past the cut and will replay.
func (l *Log) BeginSnapshot() (uint64, error) {
	if l.frozen.Load() {
		return 0, ErrCrashed
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if err := l.w.Flush(); err != nil {
		return 0, err
	}
	if err := l.f.Sync(); err != nil {
		return 0, err
	}
	cut := l.nextLSN - 1
	nf, err := createWAL(l.dir, l.nextLSN)
	if err != nil {
		return 0, err
	}
	_ = l.f.Close()
	l.f = nf
	l.w = bufio.NewWriterSize(nf, 1<<16)
	l.synced.Store(cut)
	return cut, nil
}

// CommitSnapshot atomically writes the exported state as the snapshot
// for cut, then garbage-collects everything it supersedes: older
// snapshots and every WAL file whose records are all covered (startLSN
// <= cut; the active file starts at cut+1 and survives). Platter blobs
// are not collected here — see builder.sweepBlobs.
func (l *Log) CommitSnapshot(cut uint64, data *SnapshotData) error {
	data.Fingerprint = l.fingerprint
	return l.commitSnapshot(cut, snapMagic, data.wire)
}

// commitSnapshot seals body as the snapshot for cut under magic and
// garbage-collects superseded files — the domain-independent half of
// CommitSnapshot and CommitRouterSnapshot.
func (l *Log) commitSnapshot(cut uint64, magic string, body func(*coder)) error {
	if l.frozen.Load() {
		return ErrCrashed
	}
	if err := atomicWriteFile(filepath.Join(l.dir, snapName(cut)), func(w io.Writer) error {
		return sealTo(w, magic, wireSnapshot(&cut, body))
	}); err != nil {
		return err
	}
	listing, err := listDir(l.dir)
	if err != nil {
		return err
	}
	for _, c := range listing.snaps {
		if c < cut {
			_ = os.Remove(filepath.Join(l.dir, snapName(c)))
		}
	}
	for _, start := range listing.wals {
		if start <= cut {
			_ = os.Remove(filepath.Join(l.dir, walName(start)))
		}
	}
	l.sinceSnap.Store(0)
	if l.m != nil {
		l.m.snapshots.Inc()
	}
	return nil
}

// CreatePlatterBlob creates platter id's blob file, its header written
// and laid out for every sector sectors marks (spt a track, stride
// bytes each), for the burn to write those sectors into at their
// offsets. The caller owns the read-write descriptor: it publishes the
// blob through SyncPlatterBlob, or discards it.
func (l *Log) CreatePlatterBlob(id media.PlatterID, spt, stride int, sectors func(mark func(media.SectorID))) (*Blob, error) {
	index, head := laidOut(id, spt, stride, sectors)
	path := filepath.Join(l.dir, blobName(id))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, err
	}
	blob := &Blob{f: f, path: path, index: index}
	if _, err := f.WriteAt(head, 0); err != nil {
		_ = blob.Discard()
		return nil, err
	}
	return blob, nil
}

// SyncPlatterBlob makes a burned platter's blob durable, its file and
// its directory entry both. Must complete before the record that
// publishes the platter is appended (the record-implies-blob recovery
// invariant).
func (l *Log) SyncPlatterBlob(b *Blob) error {
	if l.frozen.Load() {
		return ErrCrashed
	}
	if err := b.f.Sync(); err != nil {
		return err
	}
	return syncDir(l.dir)
}

// RecoveryTruncated reports whether the recovery that opened this log
// stopped at a torn or corrupt WAL frame and discarded the rest.
func (l *Log) RecoveryTruncated() bool { return l.truncated }

// AppendsSinceSnapshot reports WAL records appended since the last
// committed snapshot — the service's snapshot-threshold input.
func (l *Log) AppendsSinceSnapshot() int64 { return l.sinceSnap.Load() }

// Crash freezes the log in place, emulating kill -9 at this exact
// instant: records still in the 64 KiB write buffer never reach the
// disk (their writes were never acknowledged), and every subsequent
// operation fails with ErrCrashed so nothing else is acknowledged
// either. Not every unsynced record is buffered: an Append that
// overflows the buffer writes it out, and a frame larger than the
// buffer is written through, so the freeze keeps those bytes, as a
// kill -9 would once the kernel holds them. Safe to call from a faults
// kill hook while an Append is in flight. Tests reopen the directory
// afterwards to exercise recovery in-process.
func (l *Log) Crash() { l.frozen.Store(true) }

// Crashed reports whether a kill point froze the log.
func (l *Log) Crashed() bool { return l.frozen.Load() }

// Close flushes and fsyncs the log (unless frozen by Crash, in which
// case buffered bytes are deliberately dropped) and releases the file.
func (l *Log) Close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.frozen.Load() {
		return l.f.Close()
	}
	if err := l.w.Flush(); err != nil {
		_ = l.f.Close()
		return err
	}
	if err := l.f.Sync(); err != nil {
		_ = l.f.Close()
		return err
	}
	return l.f.Close()
}
