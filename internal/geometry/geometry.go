// Package geometry models the physical floor plan of a Silica library
// (§4): a sequence of write, read, and storage racks joined by
// horizontal rails that span the library, with platters shelved
// vertically between rail pairs. It provides positions and distances
// for travel-time computation, blast zones for the §6 placement
// analysis, and the rectangular logical partitions the traffic manager
// assigns to shuttles (§4.1).
//
// Coordinates: x runs in meters along the library (left to right);
// vertical positions are "rail positions" — a shuttle grips two
// adjacent rails, so rail position r means gripping rails r and r+1,
// giving access to shelf r. Moving between rail positions is one crab.
package geometry

import "fmt"

// Physical dimensions of the prototype-scale racks.
const (
	// RackWidth is the width of one rack along the x axis, meters.
	RackWidth = 1.2
)

// RackKind distinguishes the three rack types.
type RackKind int

const (
	WriteRack RackKind = iota
	ReadRack
	StorageRack
)

func (k RackKind) String() string {
	switch k {
	case WriteRack:
		return "write"
	case ReadRack:
		return "read"
	case StorageRack:
		return "storage"
	default:
		return fmt.Sprintf("rack(%d)", int(k))
	}
}

// Rack is one bay in the library line.
type Rack struct {
	Kind  RackKind
	Index int     // position in the library line, 0-based
	X0    float64 // left edge, meters
}

// Center returns the rack's x center.
func (r Rack) Center() float64 { return r.X0 + RackWidth/2 }

// Layout is the floor plan of one library panel.
type Layout struct {
	Racks             []Rack
	ShelvesPerRack    int // vertical shelves (= rail positions), paper: 10
	SlotsPerShelf     int // platter slots per shelf per storage rack
	DrivesPerReadRack int // read drives per read rack, paper: up to 10

	storageRacks []int // indices into Racks
	readRacks    []int
}

// Config sizes a library.
type Config struct {
	StorageRacks      int // paper: at least 6 for a 16+3 MDU
	ReadRacks         int // paper default: 2 (one after write rack, one at the end)
	ShelvesPerRack    int
	SlotsPerShelf     int
	DrivesPerReadRack int
}

// DefaultConfig is the paper's minimum deployment unit: one write
// rack, a read rack, seven storage racks (16+3 platter sets need 7),
// and a final read rack; 10 shelves; 10 drives per read rack (20
// total).
func DefaultConfig() Config {
	return Config{
		StorageRacks:      7,
		ReadRacks:         2,
		ShelvesPerRack:    10,
		SlotsPerShelf:     200,
		DrivesPerReadRack: 10,
	}
}

// NewLayout builds the rack line: write rack, first read rack, storage
// racks, remaining read racks at the end ("the separation of read
// drives helps minimize the distance shuttles travel", §4).
func NewLayout(cfg Config) (*Layout, error) {
	if cfg.StorageRacks < 1 || cfg.ReadRacks < 1 || cfg.ShelvesPerRack < 1 ||
		cfg.SlotsPerShelf < 1 || cfg.DrivesPerReadRack < 1 {
		return nil, fmt.Errorf("geometry: invalid config %+v", cfg)
	}
	if cfg.DrivesPerReadRack > cfg.ShelvesPerRack {
		return nil, fmt.Errorf("geometry: %d drives exceed %d shelves per rack",
			cfg.DrivesPerReadRack, cfg.ShelvesPerRack)
	}
	l := &Layout{
		ShelvesPerRack:    cfg.ShelvesPerRack,
		SlotsPerShelf:     cfg.SlotsPerShelf,
		DrivesPerReadRack: cfg.DrivesPerReadRack,
	}
	add := func(kind RackKind) {
		idx := len(l.Racks)
		l.Racks = append(l.Racks, Rack{Kind: kind, Index: idx, X0: float64(idx) * RackWidth})
		switch kind {
		case StorageRack:
			l.storageRacks = append(l.storageRacks, idx)
		case ReadRack:
			l.readRacks = append(l.readRacks, idx)
		}
	}
	add(WriteRack)
	add(ReadRack)
	for i := 0; i < cfg.StorageRacks; i++ {
		add(StorageRack)
	}
	for i := 1; i < cfg.ReadRacks; i++ {
		add(ReadRack)
	}
	return l, nil
}

// Width reports the library length in meters.
func (l *Layout) Width() float64 { return float64(len(l.Racks)) * RackWidth }

// StorageRacks returns the rack indices of storage racks, in order.
func (l *Layout) StorageRacks() []int { return l.storageRacks }

// ReadRacks returns the rack indices of read racks, in order.
func (l *Layout) ReadRacks() []int { return l.readRacks }

// NumDrives reports total read drives in the panel.
func (l *Layout) NumDrives() int { return len(l.readRacks) * l.DrivesPerReadRack }

// NumSlots reports total storage slots in the panel.
func (l *Layout) NumSlots() int {
	return len(l.storageRacks) * l.ShelvesPerRack * l.SlotsPerShelf
}

// SlotAddr addresses one storage slot.
type SlotAddr struct {
	Rack  int // rack index (must be a storage rack)
	Shelf int // 0..ShelvesPerRack-1 (also the rail position giving access)
	Slot  int // 0..SlotsPerShelf-1
}

// DriveAddr addresses one read drive.
type DriveAddr struct {
	Rack  int // rack index (must be a read rack)
	Drive int // 0..DrivesPerReadRack-1; also its shelf level
}

// Pos is a position on the panel: x in meters, rail position for
// vertical location.
type Pos struct {
	X    float64
	Rail int
}

// SlotPos returns the panel position of a slot.
func (l *Layout) SlotPos(a SlotAddr) Pos {
	r := l.Racks[a.Rack]
	frac := (float64(a.Slot) + 0.5) / float64(l.SlotsPerShelf)
	return Pos{X: r.X0 + frac*RackWidth, Rail: a.Shelf}
}

// DrivePos returns the panel position of a drive's load slot.
func (l *Layout) DrivePos(a DriveAddr) Pos {
	r := l.Racks[a.Rack]
	return Pos{X: r.Center(), Rail: a.Drive * l.ShelvesPerRack / l.DrivesPerReadRack}
}

// Drives enumerates every read drive in the panel.
func (l *Layout) Drives() []DriveAddr {
	out := make([]DriveAddr, 0, l.NumDrives())
	for _, ri := range l.readRacks {
		for d := 0; d < l.DrivesPerReadRack; d++ {
			out = append(out, DriveAddr{Rack: ri, Drive: d})
		}
	}
	return out
}

// SlotAt maps a dense index in [0, NumSlots) to its storage slot:
// storage racks in order, then shelves, then slots.
func (l *Layout) SlotAt(idx int) SlotAddr {
	if idx < 0 || idx >= l.NumSlots() {
		panic(fmt.Sprintf("geometry: slot index %d out of range", idx))
	}
	slot := idx % l.SlotsPerShelf
	idx /= l.SlotsPerShelf
	shelf := idx % l.ShelvesPerRack
	si := idx / l.ShelvesPerRack
	return SlotAddr{Rack: l.storageRacks[si], Shelf: shelf, Slot: slot}
}

// RackAtX returns the index of the rack containing x (clamped).
func (l *Layout) RackAtX(x float64) int {
	i := int(x / RackWidth)
	if i < 0 {
		return 0
	}
	if i >= len(l.Racks) {
		return len(l.Racks) - 1
	}
	return i
}

// Travel describes a move between two panel positions.
type Travel struct {
	DistanceX float64 // horizontal meters
	Crabs     int     // vertical rail-position steps
}

// TravelBetween computes the motion between two positions.
func TravelBetween(from, to Pos) Travel {
	dx := to.X - from.X
	if dx < 0 {
		dx = -dx
	}
	dr := to.Rail - from.Rail
	if dr < 0 {
		dr = -dr
	}
	return Travel{DistanceX: dx, Crabs: dr}
}

// BlastZone is the failure-impact granularity of §6: one shelf of one
// rack. A failed shuttle or drive makes every platter in its blast
// zone temporarily inaccessible.
type BlastZone struct {
	Rack  int
	Shelf int
}

// SlotZone maps a slot to its blast zone.
func SlotZone(a SlotAddr) BlastZone { return BlastZone{Rack: a.Rack, Shelf: a.Shelf} }

// DrivePosShelf returns the shelf level of a drive.
func DrivePosShelf(l *Layout, a DriveAddr) int {
	return a.Drive * l.ShelvesPerRack / l.DrivesPerReadRack
}
