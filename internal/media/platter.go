package media

import "fmt"

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
// platters carry no payload; in real-codec mode a platter is burned onto
// its Glass (Load), which holds every sector written to it from the
// first WriteSector to the end of its life: the service's blob, a file
// with a persist directory and an in-memory image without one. The
// platter does not interpret a sector's bytes (voxel.SectorPipeline
// defines them). It keeps the WORM lifecycle and refuses what glass
// cannot do: a write outside the Writing state or the geometry, a
// second write of one sector, and a sector whose length differs from
// the platter's first.
type Platter struct {
	ID    PlatterID
	Geom  Geometry
	state PlatterState

	// glass holds the sectors; stride is the byte length of every
	// sector, fixed by the first write; burned has bit track×spt+sector
	// set for each written sector, grown to the highest one. Only used by
	// the real-codec path.
	glass  Glass
	stride int
	burned []uint64
}

// Glass is where a platter's sectors live. WriteSector stores one
// sector's bytes, copying them before it returns; ReadSectorInto has
// Platter.ReadSectorInto's contract, and reports false for a sector
// it does not hold or cannot read — an unreadable sector, which the
// read path repairs like any other.
type Glass interface {
	WriteSector(id SectorID, data []byte) error
	ReadSectorInto(id SectorID, dst []byte) ([]byte, bool)
}

// NewPlatter returns a blank platter.
func NewPlatter(id PlatterID, geom Geometry) *Platter {
	return &Platter{ID: id, Geom: geom, state: Blank}
}

// Recovered returns a Stored platter whose glass is glass — the
// crash-recovery path. The WORM lifecycle is not re-walked: the platter
// was verified before its publish record was logged, and glass state
// survives a front-end restart by nature.
func Recovered(id PlatterID, geom Geometry, glass Glass) *Platter {
	return &Platter{ID: id, Geom: geom, state: Stored, glass: glass}
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

// Load mounts a blank platter in the write drive on glass: it moves to
// Writing, and every sector written from now on lands on glass.
func (p *Platter) Load(glass Glass) error {
	if err := p.Transition(Writing); err != nil {
		return err
	}
	p.glass = glass
	return nil
}

// WriteSector records the bytes of one sector on the platter's glass.
// Glass is WORM: writing an already-written sector is an error, as is
// writing outside the Writing state. Every sector of a platter has the
// length of the first one written.
func (p *Platter) WriteSector(id SectorID, data []byte) error {
	if p.state != Writing || p.glass == nil {
		return fmt.Errorf("media: platter %d: write in state %v (glass loaded %v)", p.ID, p.state, p.glass != nil)
	}
	spt := p.Geom.SectorsPerTrack()
	if id.Track < 0 || id.Track >= p.Geom.TracksPerPlatter || id.Sector < 0 || id.Sector >= spt {
		return fmt.Errorf("media: platter %d: sector %+v out of range", p.ID, id)
	}
	if p.stride == 0 {
		p.stride = len(data)
	} else if len(data) != p.stride {
		return fmt.Errorf("media: platter %d: sector %+v is %d bytes, the platter's sectors are %d",
			p.ID, id, len(data), p.stride)
	}
	k := id.Track*spt + id.Sector
	for len(p.burned) <= k>>6 {
		p.burned = append(p.burned, 0)
	}
	bit := uint64(1) << (k & 63)
	if p.burned[k>>6]&bit != 0 {
		return fmt.Errorf("media: platter %d: sector %+v already written (WORM)", p.ID, id)
	}
	if err := p.glass.WriteSector(id, data); err != nil {
		return fmt.Errorf("media: platter %d: sector %+v: %w", p.ID, id, err)
	}
	p.burned[k>>6] |= bit
	return nil
}

// ReadSectorInto copies a sector's stored bytes into dst's storage
// (growing it only when too small) and returns the filled slice, or
// ok=false if the platter's glass does not hold it. Reading is legal in
// any post-write state — the read optics physically cannot modify
// voxels.
func (p *Platter) ReadSectorInto(id SectorID, dst []byte) ([]byte, bool) {
	if p.glass == nil {
		return nil, false
	}
	return p.glass.ReadSectorInto(id, dst)
}
