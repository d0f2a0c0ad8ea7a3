package persist

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"silica/internal/media"
)

// replayer is one record domain's half of recovery: the in-memory
// shape its snapshot seeds and its records replay into. recoverDir
// calls load at most once, then apply per record in LSN order, then
// finish once.
type replayer interface {
	// load decodes a snapshot body as the replay base and returns the
	// fingerprint it was written under. A replayer whose load failed is
	// thrown away.
	load(c *coder) string
	// apply replays one record; application is idempotent (see Record).
	apply(Record)
	// finish normalizes the replayed state, resolves whatever the domain
	// keeps outside the log, and returns the body of the post-recovery
	// snapshot.
	finish(records int, truncated bool) (snapshot func(*coder), err error)
}

// domain is everything that differs between the service's and the
// router's persistence directories; recoverDir is everything that
// does not.
type domain[R replayer] struct {
	holds   string      // what such a directory holds, for refusals
	magic   string      // snapshot file magic
	records recordTable // WAL tag space
	start   func(Options) R
	// sweep, when set, is handed the platter blobs found on disk once
	// the post-recovery snapshot has committed.
	sweep func(R, []media.PlatterID)
}

// recoverDir recovers a persistence directory and returns a ready Log.
// The sequence: load the newest valid snapshot (corrupt snapshots fall
// back to older ones), replay every WAL record past its cut in LSN
// order stopping at the first torn or corrupt frame, let the domain
// normalize, then immediately write a fresh snapshot and garbage-
// collect everything it supersedes — stale snapshots, replayed WAL
// files, torn bytes, and whatever the domain sweeps.
func recoverDir[R replayer](opts Options, d domain[R]) (*Log, R, error) {
	t0 := time.Now()
	var r R
	if opts.Dir == "" {
		return nil, r, fmt.Errorf("persist: empty directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, r, err
	}
	listing, err := listDir(opts.Dir)
	if err != nil {
		return nil, r, err
	}

	// Newest snapshot that decodes; older ones are fallbacks against a
	// snapshot torn by disk damage (atomic writes rule out torn renames,
	// not bit rot). If snapshots exist but none decodes under this
	// domain's magic, this is some other directory (the other domain's,
	// or one damaged beyond its WAL horizon) — refuse rather than
	// silently start empty and clobber it.
	var snapCut uint64
	loaded := false
	for i := len(listing.snaps) - 1; i >= 0 && !loaded; i-- {
		data, rerr := os.ReadFile(filepath.Join(opts.Dir, snapName(listing.snaps[i])))
		if rerr != nil {
			continue
		}
		cand := d.start(opts)
		var cut uint64
		var fingerprint string
		body := func(c *coder) { fingerprint = cand.load(c) }
		if openFile(d.magic, data, wireSnapshot(&cut, body)) != nil {
			continue
		}
		if fingerprint != opts.Fingerprint {
			return nil, r, fmt.Errorf("persist: %s holds %s written under configuration %q, this process runs %q",
				opts.Dir, d.holds, fingerprint, opts.Fingerprint)
		}
		r, snapCut, loaded = cand, cut, true
	}
	if !loaded {
		if len(listing.snaps) > 0 {
			return nil, r, fmt.Errorf("persist: %s holds snapshots but none decodes as %s", opts.Dir, d.holds)
		}
		r = d.start(opts)
	}

	// Replay. WAL files are scanned in startLSN order; a file entirely
	// superseded by the snapshot (its successor starts at or below
	// cut+1) is skipped outright, so stale bit rot in it cannot block
	// replay of live records.
	maxLSN := snapCut
	records := 0
	truncated := false
	for i, start := range listing.wals {
		if i+1 < len(listing.wals) && listing.wals[i+1] <= snapCut+1 {
			continue
		}
		frames, tornAt, serr := scanWAL(filepath.Join(opts.Dir, walName(start)), d.records)
		if serr != nil {
			// Not a WAL at all — treat like a torn tail: stop replay
			// here rather than silently skip acknowledged history.
			truncated = true
			break
		}
		for _, fr := range frames {
			if fr.lsn <= snapCut {
				continue
			}
			r.apply(fr.rec)
			records++
			if fr.lsn > maxLSN {
				maxLSN = fr.lsn
			}
		}
		if tornAt >= 0 {
			truncated = true
			break
		}
	}
	snapshot, err := r.finish(records, truncated)
	if err != nil {
		return nil, r, err
	}

	l := &Log{
		dir:         opts.Dir,
		fingerprint: opts.Fingerprint,
		faults:      opts.Faults,
		nextLSN:     maxLSN + 1,
		truncated:   truncated,
	}
	l.m = newLogMetrics(opts.Metrics, l.AppendsSinceSnapshot)
	l.synced.Store(maxLSN)
	f, err := createWAL(opts.Dir, l.nextLSN)
	if err != nil {
		return nil, r, err
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, 1<<16)

	// Post-recovery snapshot: collapses the replayed history so the
	// next crash recovers from here, and licenses the sweep below.
	if err := l.commitSnapshot(maxLSN, d.magic, snapshot); err != nil {
		_ = f.Close()
		return nil, r, err
	}
	if d.sweep != nil {
		d.sweep(r, listing.blobs)
	}

	if l.m != nil {
		l.m.replayed.Add(int64(records))
		l.m.recovery.Set(time.Since(t0).Seconds())
		if truncated {
			l.m.truncated.Set(1)
		}
	}
	return l, r, nil
}
