package media

import "fmt"

// PlatterID identifies a platter within a deployment.
type PlatterID int64

// PlatterState is the WORM lifecycle of a platter (§3, §4). The legal
// transitions encode two paper invariants: glass is write-once (no path
// from any written state back to Blank or Writing), and the library is
// air-gap-by-design (no written platter may re-enter a write drive —
// see CanEnterWriteDrive).
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
	// Faulted: verification found unrecoverable damage; contents remain
	// in staging and the platter awaits recycling.
	Faulted
	// Recycled: melted down as blank feedstock; terminal.
	Recycled
)

var stateNames = map[PlatterState]string{
	Blank: "blank", Writing: "writing", Written: "written",
	Verifying: "verifying", Stored: "stored", Faulted: "faulted",
	Recycled: "recycled",
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
	Stored:    {Recycled}, // only after crypto-shredding frees all live data
	Faulted:   {Recycled},
	Recycled:  {},
}

// Platter is the unit of glass media. In the discrete-event simulator
// platters carry no payload; in real-codec mode WriteSector/ReadSectorInto
// hold the modulated symbols of each written sector.
type Platter struct {
	ID    PlatterID
	Geom  Geometry
	state PlatterState

	// symbols holds modulated voxel symbols per written sector; nil
	// until the first write. Only used by the real-codec path.
	symbols map[SectorID][]uint8
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

// CanEnterWriteDrive enforces the air gap: only blank platters (which
// arrive via the supply path, not via shuttles) may be written.
func (p *Platter) CanEnterWriteDrive() bool { return p.state == Blank }

// WriteSector records the modulated symbols of one sector. Glass is
// WORM: writing an already-written sector is an error, as is writing
// outside the Writing state.
func (p *Platter) WriteSector(id SectorID, symbols []uint8) error {
	if p.state != Writing {
		return fmt.Errorf("media: platter %d: write in state %v", p.ID, p.state)
	}
	if id.Track < 0 || id.Track >= p.Geom.TracksPerPlatter ||
		id.Sector < 0 || id.Sector >= p.Geom.SectorsPerTrack() {
		return fmt.Errorf("media: platter %d: sector %+v out of range", p.ID, id)
	}
	if p.symbols == nil {
		p.symbols = make(map[SectorID][]uint8)
	}
	if _, written := p.symbols[id]; written {
		return fmt.Errorf("media: platter %d: sector %+v already written (WORM)", p.ID, id)
	}
	cp := make([]uint8, len(symbols))
	copy(cp, symbols)
	p.symbols[id] = cp
	return nil
}

// ReadSectorInto copies a sector's stored symbols into dst's storage
// (growing it only when too small) and returns the filled slice, or
// ok=false if the sector was never written. Reading is legal in any
// post-write state — the read optics physically cannot modify voxels.
func (p *Platter) ReadSectorInto(id SectorID, dst []uint8) ([]uint8, bool) {
	s, ok := p.symbols[id]
	if !ok {
		return nil, false
	}
	out := dst[:0]
	if cap(out) >= len(s) {
		out = out[:len(s)]
	} else {
		out = make([]uint8, len(s))
	}
	copy(out, s)
	return out, true
}

// WrittenSectors reports how many sectors hold data.
func (p *Platter) WrittenSectors() int { return len(p.symbols) }

// SectorContents returns the platter's own sector map, the media
// payload of a persistence blob, without copying it. Only a Stored
// platter has one: glass is WORM, so once verified nothing writes its
// symbols again and the map is safe to read for as long as it lives.
// Callers must not modify it.
func (p *Platter) SectorContents() (map[SectorID][]uint8, error) {
	if p.state != Stored {
		return nil, fmt.Errorf("media: platter %d: sector contents in state %v", p.ID, p.state)
	}
	return p.symbols, nil
}

// RestoreStored rebuilds a platter directly in the Stored state from
// saved sector symbols — the crash-recovery path — and takes ownership
// of sectors: the caller must not use the map again. The WORM
// lifecycle is not re-walked: the platter was verified before its
// publish record was logged, and glass state survives a front-end
// restart by nature.
func RestoreStored(id PlatterID, geom Geometry, sectors map[SectorID][]uint8) *Platter {
	return &Platter{ID: id, Geom: geom, state: Stored, symbols: sectors}
}
