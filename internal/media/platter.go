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
// platters carry no payload; in real-codec mode WriteSector/ReadSectorInto
// hold the modulated symbols of each written sector.
//
// The media is kept at the glass's own density: a voxel symbol carries
// four bits (voxel.BitsPerVoxel), so two symbols share a byte, and each
// written track holds its sectors in one slab at a fixed stride. A
// track's slab is allocated on that track's first write, so an unwritten
// track costs nothing. Only the low four bits of a symbol are stored:
// the demodulator reads nothing else (Modulation.IdealPoint masks them).
type Platter struct {
	ID    PlatterID
	Geom  Geometry
	state PlatterState

	// symLen is the symbol count of every sector, fixed by the first
	// write; tracks is indexed by physical track and grown to the
	// highest one written; written counts the sectors that hold data.
	// Only used by the real-codec path.
	symLen  int
	tracks  []trackMedia
	written int
}

// trackMedia is one track's sectors: sector s packed at
// packed[s*stride:(s+1)*stride], low nibble first, with stride =
// ceil(symLen/2). Both slices are nil until the track's first write.
type trackMedia struct {
	packed  []byte
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

// WriteSector records the modulated symbols of one sector, packed two
// to a byte. Glass is WORM: writing an already-written sector is an
// error, as is writing outside the Writing state. Every sector of a
// platter has the symbol count of the first one written.
func (p *Platter) WriteSector(id SectorID, symbols []uint8) error {
	if p.state != Writing {
		return fmt.Errorf("media: platter %d: write in state %v", p.ID, p.state)
	}
	return p.put(id, symbols)
}

// put packs symbols into sector id's slot, allocating the track's slab
// on its first write.
func (p *Platter) put(id SectorID, symbols []uint8) error {
	spt := p.Geom.SectorsPerTrack()
	if id.Track < 0 || id.Track >= p.Geom.TracksPerPlatter || id.Sector < 0 || id.Sector >= spt {
		return fmt.Errorf("media: platter %d: sector %+v out of range", p.ID, id)
	}
	if p.written == 0 {
		p.symLen = len(symbols)
	} else if len(symbols) != p.symLen {
		return fmt.Errorf("media: platter %d: sector %+v has %d symbols, the platter's sectors have %d",
			p.ID, id, len(symbols), p.symLen)
	}
	if id.Track >= len(p.tracks) {
		p.tracks = append(p.tracks, make([]trackMedia, id.Track+1-len(p.tracks))...)
	}
	t := &p.tracks[id.Track]
	stride := p.stride()
	if t.written == nil {
		t.packed = make([]byte, spt*stride)
		t.written = make([]bool, spt)
	} else if t.written[id.Sector] {
		return fmt.Errorf("media: platter %d: sector %+v already written (WORM)", p.ID, id)
	}
	pack(t.packed[id.Sector*stride:(id.Sector+1)*stride], symbols)
	t.written[id.Sector] = true
	p.written++
	return nil
}

func (p *Platter) stride() int { return (p.symLen + 1) / 2 }

// pack stores symbols two to a byte, the even-indexed one in the low
// nibble; dst holds ceil(len(symbols)/2) bytes.
func pack(dst, symbols []uint8) {
	n := len(symbols) / 2
	for i := 0; i < n; i++ {
		dst[i] = symbols[2*i]&15 | symbols[2*i+1]<<4
	}
	if len(symbols)%2 == 1 {
		dst[n] = symbols[2*n] & 15
	}
}

// unpack is pack's inverse: it fills every element of dst.
func unpack(dst, src []uint8) {
	n := len(dst) / 2
	for i, b := range src[:n] {
		dst[2*i], dst[2*i+1] = b&15, b>>4
	}
	if len(dst)%2 == 1 {
		dst[2*n] = src[n] & 15
	}
}

// ReadSectorInto unpacks a sector's stored symbols into dst's storage
// (growing it only when too small) and returns the filled slice, or
// ok=false if the sector was never written. Reading is legal in any
// post-write state — the read optics physically cannot modify voxels.
func (p *Platter) ReadSectorInto(id SectorID, dst []uint8) ([]uint8, bool) {
	src, ok := p.sector(id)
	if !ok {
		return nil, false
	}
	out := dst[:0]
	if cap(out) >= p.symLen {
		out = out[:p.symLen]
	} else {
		out = make([]uint8, p.symLen)
	}
	unpack(out, src)
	return out, true
}

// sector returns sector id's packed bytes, if it was written.
func (p *Platter) sector(id SectorID) ([]byte, bool) {
	if id.Track < 0 || id.Track >= len(p.tracks) || id.Sector < 0 || id.Sector >= p.Geom.SectorsPerTrack() {
		return nil, false
	}
	t := &p.tracks[id.Track]
	if t.written == nil || !t.written[id.Sector] {
		return nil, false
	}
	stride := p.stride()
	return t.packed[id.Sector*stride : (id.Sector+1)*stride], true
}

// WrittenSectors reports how many sectors hold data.
func (p *Platter) WrittenSectors() int { return p.written }

// EachSector calls fn with every written sector in address order
// (track, then sector), each unpacked into one buffer that is reused
// for the next call, and stops at fn's first error. It walks only a
// Stored platter: glass is WORM, so once verified nothing writes its
// symbols again.
func (p *Platter) EachSector(fn func(SectorID, []uint8) error) error {
	if p.state != Stored {
		return fmt.Errorf("media: platter %d: sector walk in state %v", p.ID, p.state)
	}
	buf := make([]uint8, p.symLen)
	for track := range p.tracks {
		for sector, ok := range p.tracks[track].written {
			if !ok {
				continue
			}
			id := SectorID{Track: track, Sector: sector}
			src, _ := p.sector(id)
			unpack(buf, src)
			if err := fn(id, buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// RestoreStored rebuilds a platter directly in the Stored state from
// saved sector symbols — the crash-recovery path — packing them as it
// goes. It refuses what WriteSector would: a sector out of range, or
// one whose symbol count differs from the others. The WORM lifecycle is
// not re-walked: the platter was verified before its publish record was
// logged, and glass state survives a front-end restart by nature.
func RestoreStored(id PlatterID, geom Geometry, sectors map[SectorID][]uint8) (*Platter, error) {
	p := NewPlatter(id, geom)
	for sid, symbols := range sectors {
		if err := p.put(sid, symbols); err != nil {
			return nil, err
		}
	}
	p.state = Stored
	return p, nil
}
