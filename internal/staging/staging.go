// Package staging implements the online write-staging tier (§2, §6).
// Ingress at a data center is bursty at day granularity (peak/mean up
// to ~16x) but smooth across 30-day windows (peak/mean ~2), so Silica
// buffers incoming files in warm storage and the gateway drains them to
// the write drives in batches, when the tier passes a size watermark or
// its oldest file ages out. Staged data is only released after the
// written platter verifies.
package staging

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"silica/internal/metadata"
)

// ErrCapacity is returned when the tier cannot admit or reserve space
// for a file. The front end maps it to backpressure (HTTP 429).
var ErrCapacity = errors.New("staging: capacity exhausted")

// File is one staged object.
type File struct {
	Key     metadata.FileKey
	Version int
	Size    int64
	Arrival float64 // virtual seconds
	// Data holds the (encrypted) bytes in real-codec mode; nil when the
	// simulator only tracks sizes. It is immutable once admitted: staged
	// reads decrypt from it and a flush burns views of it, which outlive
	// the file's release until its platter-set closes. No release,
	// delete or replay may clear or reuse it.
	Data []byte
}

// ID names one staged (key, version): the tier's index key, and the
// identity the flush pipeline tracks a file by.
type ID struct {
	Key     metadata.FileKey
	Version int
}

// ID returns f's identity.
func (f *File) ID() ID { return ID{Key: f.Key, Version: f.Version} }

// Tier is the staging buffer. Files are admitted on write, handed to
// the flush pipeline as one ordered backlog, and released after
// verification. All methods are safe for concurrent use: the tier sits
// between the concurrent front end and the flush pipeline.
type Tier struct {
	Capacity int64 // bytes; 0 means unbounded

	mu       sync.Mutex
	used     int64
	reserved int64 // bytes promised to in-flight Puts, not yet admitted
	files    map[ID]*File
	peakUsed int64
	// oldest is the smallest Arrival among files (+Inf when empty).
	// Admission lowers it in place; releasing a file that holds it sets
	// oldestStale and the next Usage rescans, once per drain rather than
	// once per call.
	oldest      float64
	oldestStale bool
}

// NewTier returns a staging tier with the given capacity (0 = unbounded).
func NewTier(capacity int64) *Tier {
	return &Tier{Capacity: capacity, files: make(map[ID]*File), oldest: math.Inf(1)}
}

// Used reports currently staged bytes (excluding reservations).
func (t *Tier) Used() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.used
}

// Usage is a consistent snapshot of tier occupancy, the input to the
// gateway's admission control and flush watermarks.
type Usage struct {
	Used     int64 // staged bytes
	Reserved int64 // bytes held by in-flight reservations
	Capacity int64 // 0 = unbounded
	Peak     int64 // high-water mark of Used+Reserved
	Pending  int   // staged file count
	// OldestArrival is the smallest Arrival among staged files; only
	// meaningful when Pending > 0.
	OldestArrival float64
}

// Fraction reports (Used+Reserved)/Capacity, or 0 when unbounded.
func (u Usage) Fraction() float64 {
	if u.Capacity <= 0 {
		return 0
	}
	return float64(u.Used+u.Reserved) / float64(u.Capacity)
}

// Usage returns an occupancy snapshot.
func (t *Tier) Usage() Usage {
	t.mu.Lock()
	defer t.mu.Unlock()
	u := Usage{
		Used:     t.used,
		Reserved: t.reserved,
		Capacity: t.Capacity,
		Peak:     t.peakUsed,
		Pending:  len(t.files),
	}
	if t.oldestStale {
		t.oldest, t.oldestStale = math.Inf(1), false
		for _, f := range t.files {
			t.oldest = min(t.oldest, f.Arrival)
		}
	}
	if len(t.files) > 0 {
		u.OldestArrival = t.oldest
	}
	return u
}

// add indexes f and counts its bytes; the caller holds mu.
func (t *Tier) add(f *File) {
	if old, ok := t.files[f.ID()]; ok {
		t.used -= old.Size // re-admission replaces, never double counts
	}
	t.files[f.ID()] = f
	t.used += f.Size
	t.oldest = min(t.oldest, f.Arrival)
	if t.used+t.reserved > t.peakUsed {
		t.peakUsed = t.used + t.reserved
	}
}

// Reserve holds size bytes of capacity for an in-flight Put, before
// the (possibly expensive) encryption work, so admission control can
// reject early with ErrCapacity and never leaves half-registered
// state behind. Pair with AdmitReserved or CancelReservation.
func (t *Tier) Reserve(size int64) error {
	if size < 0 {
		return fmt.Errorf("staging: negative reservation %d", size)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.Capacity > 0 && t.used+t.reserved+size > t.Capacity {
		return fmt.Errorf("%w: %d used + %d reserved + %d > %d",
			ErrCapacity, t.used, t.reserved, size, t.Capacity)
	}
	t.reserved += size
	if t.used+t.reserved > t.peakUsed {
		t.peakUsed = t.used + t.reserved
	}
	return nil
}

// CancelReservation releases a reservation whose Put failed.
func (t *Tier) CancelReservation(size int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reserved -= size
	if t.reserved < 0 {
		panic("staging: reservation underflow")
	}
}

// AdmitReserved stages a file whose size was previously Reserved,
// converting the reservation into staged bytes. It cannot fail on
// capacity: the reservation already holds the space.
func (t *Tier) AdmitReserved(f *File) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reserved -= f.Size
	if t.reserved < 0 {
		panic("staging: admit without matching reservation")
	}
	t.add(f)
}

// Restore re-admits a file during crash recovery, bypassing the
// capacity check: the bytes were admitted (and acknowledged) before the
// restart, so rejecting them now would drop durable-promised data. Used
// may temporarily exceed Capacity; admission control then rejects new
// writes until a flush drains the overhang.
func (t *Tier) Restore(f *File) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.add(f)
}

// NextBatch returns the whole staged backlog in the §6 packing order:
// by customer account, then arrival time, then name (then version), so
// files likely to be read together land on the same platter. One flush
// round plans all of it at once, and a persistence snapshot records it.
// The files remain staged (and counted) until Release; the File
// pointers are shared (staged data is immutable once admitted), the
// slice is the caller's. Returns nil if nothing is staged.
func (t *Tier) NextBatch() []*File {
	t.mu.Lock()
	if len(t.files) == 0 {
		t.mu.Unlock()
		return nil
	}
	batch := make([]*File, 0, len(t.files))
	for _, f := range t.files {
		batch = append(batch, f)
	}
	t.mu.Unlock()
	sort.Slice(batch, func(i, j int) bool {
		a, b := batch[i], batch[j]
		if a.Key.Account != b.Key.Account {
			return a.Key.Account < b.Key.Account
		}
		if a.Arrival != b.Arrival {
			return a.Arrival < b.Arrival
		}
		if a.Key.Name != b.Key.Name {
			return a.Key.Name < b.Key.Name
		}
		return a.Version < b.Version
	})
	return batch
}

// Find locates a staged file by key and version, for serving reads of
// data that is not yet durable in glass.
func (t *Tier) Find(key metadata.FileKey, version int) (*File, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, ok := t.files[ID{Key: key, Version: version}]
	return f, ok
}

// Release frees the staging space of verified files. Releasing a file
// that is not staged is an error (double release or never admitted);
// the rest of the list is released all the same.
func (t *Tier) Release(files []*File) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var err error
	for _, f := range files {
		staged, ok := t.files[f.ID()]
		if !ok {
			if err == nil {
				err = fmt.Errorf("staging: release of unknown file %v#%d", f.Key, f.Version)
			}
			continue
		}
		delete(t.files, f.ID())
		t.used -= staged.Size
		if staged.Arrival <= t.oldest {
			t.oldestStale = true
		}
	}
	return err
}
