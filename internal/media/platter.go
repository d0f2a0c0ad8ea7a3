package media

import (
	"fmt"
	"sync"
)

// PlatterID identifies a platter within a deployment.
type PlatterID int64

// PlatterState is the WORM lifecycle of a platter (§3, §4). The legal
// transitions encode two paper invariants: glass is write-once (no path
// from any written state back to Blank or Writing), and the library is
// air-gap-by-design (no written platter may re-enter a write drive:
// Writing is entered from Blank alone).
type PlatterState int

const (
	// Blank platters live in the write drive's supply, which shuttles
	// cannot reach.
	Blank PlatterState = iota
	// Writing: mounted in the write drive, voxels being created.
	Writing
	// Written: ejected from the write drive, awaiting verification.
	Written
	// Verifying: mounted in a read drive's verification slot.
	Verifying
	// Stored: verified and placed in its home storage slot.
	Stored
	// Faulted: the burn or its verification failed; the contents remain
	// in staging and the platter is scrapped. Terminal.
	Faulted
)

var stateNames = map[PlatterState]string{
	Blank: "blank", Writing: "writing", Written: "written",
	Verifying: "verifying", Stored: "stored", Faulted: "faulted",
}

func (s PlatterState) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("state(%d)", int(s))
}

var legalTransitions = map[PlatterState][]PlatterState{
	Blank:     {Writing},
	Writing:   {Written, Faulted},
	Written:   {Verifying},
	Verifying: {Stored, Faulted},
	Stored:    {},
	Faulted:   {},
}

// Platter is the unit of glass media. In the discrete-event simulator
// platters carry no payload; in real-codec mode WriteSector/ReadSectorInto
// hold the bytes of each written sector, which the platter does not
// interpret (voxel.SectorPipeline defines them).
//
// While a platter is burned and verified its glass is in the heap: every
// sector of a platter has the length of the first one written, and each
// written track holds its sectors in one slab at that stride. A track's
// slab is taken on that track's first write, from the platter's Slabs
// free list when it was built on one, so an unwritten track costs
// nothing.
//
// Once Stored, a platter can be shelved (Shelve): its glass then lives in
// a SectorSource outside the heap — the service's persisted blob — and its
// slabs go back to the free list for the next burn, as a platter in the
// paper leaves the drive for a passive storage slot and is read only when
// asked.
type Platter struct {
	ID    PlatterID
	Geom  Geometry
	state PlatterState

	// stride is the byte length of every sector, fixed by the first
	// write; written counts the sectors that hold data; slabs is where
	// track slabs come from and go back to (nil: the heap). Only used by
	// the real-codec path.
	stride  int
	written int
	slabs   *Slabs

	// mu guards the switch from tracks to src: a read holds it shared
	// across its copy out of a slab, so Shelve never hands on a slab a
	// reader is still copying. tracks is indexed by physical track and
	// grown to the highest one written; src is set once, by Shelve.
	mu     sync.RWMutex
	tracks []trackMedia
	src    SectorSource
}

// SectorSource is where a shelved platter's glass lives. ReadSectorInto
// has Platter.ReadSectorInto's contract: it fills dst's storage (growing
// it only when too small) with the sector's bytes and returns the
// filled slice, or false for a sector never written or one it cannot
// read — an unreadable sector, which the read path repairs like any
// other. WrittenSectors counts the sectors it holds; Close releases it,
// after which every read fails.
type SectorSource interface {
	ReadSectorInto(id SectorID, dst []byte) ([]byte, bool)
	WrittenSectors() int
	Close() error
}

// trackMedia is one track's sectors: sector s at
// slab[s*stride:(s+1)*stride]. Both slices are nil until the track's
// first write.
type trackMedia struct {
	slab    []byte
	written []bool
}

// NewPlatter returns a blank platter.
func NewPlatter(id PlatterID, geom Geometry) *Platter {
	return &Platter{ID: id, Geom: geom, state: Blank}
}

// State reports the current lifecycle state.
func (p *Platter) State() PlatterState { return p.state }

// Transition moves the platter to next, or returns an error naming the
// violated invariant.
func (p *Platter) Transition(next PlatterState) error {
	for _, ok := range legalTransitions[p.state] {
		if ok == next {
			p.state = next
			return nil
		}
	}
	return fmt.Errorf("media: platter %d: illegal transition %v -> %v", p.ID, p.state, next)
}

// WriteSector records the bytes of one sector. Glass is WORM: writing
// an already-written sector is an error, as is writing outside the
// Writing state. Every sector of a platter has the length of the first
// one written.
func (p *Platter) WriteSector(id SectorID, data []byte) error {
	if p.state != Writing {
		return fmt.Errorf("media: platter %d: write in state %v", p.ID, p.state)
	}
	spt := p.Geom.SectorsPerTrack()
	if id.Track < 0 || id.Track >= p.Geom.TracksPerPlatter || id.Sector < 0 || id.Sector >= spt {
		return fmt.Errorf("media: platter %d: sector %+v out of range", p.ID, id)
	}
	if p.written == 0 {
		p.stride = len(data)
	} else if len(data) != p.stride {
		return fmt.Errorf("media: platter %d: sector %+v is %d bytes, the platter's sectors are %d",
			p.ID, id, len(data), p.stride)
	}
	if id.Track >= len(p.tracks) {
		p.tracks = append(p.tracks, make([]trackMedia, id.Track+1-len(p.tracks))...)
	}
	t := &p.tracks[id.Track]
	if t.written == nil {
		t.slab = p.slabs.take(spt * p.stride)
		t.written = make([]bool, spt)
	} else if t.written[id.Sector] {
		return fmt.Errorf("media: platter %d: sector %+v already written (WORM)", p.ID, id)
	}
	copy(t.slab[id.Sector*p.stride:], data)
	t.written[id.Sector] = true
	p.written++
	return nil
}

// ReadSectorInto copies a sector's stored bytes into dst's storage
// (growing it only when too small) and returns the filled slice, or
// ok=false if the sector was never written. Reading is legal in any
// post-write state — the read optics physically cannot modify voxels.
func (p *Platter) ReadSectorInto(id SectorID, dst []byte) ([]byte, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.src != nil {
		return p.src.ReadSectorInto(id, dst)
	}
	src, ok := p.sector(id)
	if !ok {
		return nil, false
	}
	return append(dst[:0], src...), true
}

// sector returns sector id's stored bytes, if it was written.
func (p *Platter) sector(id SectorID) ([]byte, bool) {
	if id.Track < 0 || id.Track >= len(p.tracks) || id.Sector < 0 || id.Sector >= p.Geom.SectorsPerTrack() {
		return nil, false
	}
	t := &p.tracks[id.Track]
	if t.written == nil || !t.written[id.Sector] {
		return nil, false
	}
	return t.slab[id.Sector*p.stride : (id.Sector+1)*p.stride], true
}

// WrittenSectors reports how many sectors hold data.
func (p *Platter) WrittenSectors() int { return p.written }

// EachSector calls fn with every written sector in address order
// (track, then sector), each a view of its slab that fn must not keep
// or write, and stops at fn's first error. It walks only a Stored
// platter whose glass is still in the heap: glass is WORM, so once
// verified nothing writes its sectors again, and the walk is what a blob
// is encoded from before the platter is shelved.
func (p *Platter) EachSector(fn func(SectorID, []byte) error) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.state != Stored || p.src != nil {
		return fmt.Errorf("media: platter %d: sector walk in state %v (shelved %v)", p.ID, p.state, p.src != nil)
	}
	for track := range p.tracks {
		for sector, ok := range p.tracks[track].written {
			if !ok {
				continue
			}
			id := SectorID{Track: track, Sector: sector}
			src, _ := p.sector(id)
			if err := fn(id, src); err != nil {
				return err
			}
		}
	}
	return nil
}

// Shelve moves a Stored platter's glass out of the heap: from now on its
// sectors are read from src, and its track slabs go back to the free list
// they came from. The switch takes the platter's lock, so a read in flight
// finishes its copy before the slab is handed on, and every later read
// goes to src.
func (p *Platter) Shelve(src SectorSource) error {
	if p.state != Stored {
		return fmt.Errorf("media: platter %d: shelved in state %v", p.ID, p.state)
	}
	p.mu.Lock()
	if p.src != nil {
		p.mu.Unlock()
		return fmt.Errorf("media: platter %d: shelved twice", p.ID)
	}
	tracks := p.tracks
	p.tracks, p.src = nil, src
	p.mu.Unlock()
	for _, t := range tracks {
		p.slabs.give(t.slab)
	}
	return nil
}

// Shelved returns a Stored platter whose glass is src — the
// crash-recovery path. The WORM lifecycle is not re-walked: the platter
// was verified before its publish record was logged, and glass state
// survives a front-end restart by nature.
func Shelved(id PlatterID, geom Geometry, src SectorSource) *Platter {
	p := NewPlatter(id, geom)
	p.state, p.src, p.written = Stored, src, src.WrittenSectors()
	return p
}

// Close releases a shelved platter's source; reads fail from then on. A
// platter whose glass is in the heap has nothing to release.
func (p *Platter) Close() error {
	p.mu.RLock()
	src := p.src
	p.mu.RUnlock()
	if src == nil {
		return nil
	}
	return src.Close()
}

// Slabs is a free list of track slabs. The platters built on it take a
// slab for each track they write and give their slabs back when Shelve
// moves their glass out of the heap, so a burn writes into the slabs of
// platters already on disk, whenever a collection runs. It keeps at most
// keep slabs; any beyond that go to the GC.
type Slabs struct {
	mu   sync.Mutex
	free [][]byte
	keep int
}

// NewSlabs returns an empty free list that keeps at most keep slabs.
func NewSlabs(keep int) *Slabs { return &Slabs{keep: keep} }

// NewPlatter returns a blank platter whose tracks take their slabs from l.
func (l *Slabs) NewPlatter(id PlatterID, geom Geometry) *Platter {
	p := NewPlatter(id, geom)
	p.slabs = l
	return p
}

// take returns an n-byte slab: a free one when it is large enough, else
// a new one. A nil list always allocates. A recycled slab keeps its old
// bytes, which no read sees: a sector is read only once written.
func (l *Slabs) take(n int) []byte {
	if l != nil {
		l.mu.Lock()
		if k := len(l.free) - 1; k >= 0 && cap(l.free[k]) >= n {
			b := l.free[k]
			l.free[k] = nil
			l.free = l.free[:k]
			l.mu.Unlock()
			return b[:n]
		}
		l.mu.Unlock()
	}
	return make([]byte, n)
}

// give returns a slab to the list, or to the GC once the list holds keep.
func (l *Slabs) give(b []byte) {
	if l == nil || b == nil {
		return
	}
	l.mu.Lock()
	if len(l.free) < l.keep {
		l.free = append(l.free, b)
	}
	l.mu.Unlock()
}
