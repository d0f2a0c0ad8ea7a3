// Package layout implements Silica's data layout and management (§6):
// assignment of files to platters (packing by account and arrival,
// sharding large files), the track span of a placed extent, and
// blast-zone-aware placement of platter-sets across the library's
// storage racks — including the Table 1 storage-rack minimums.
//
// The paper derives its rack minimums with a binary integer program it
// explicitly omits ("for brevity"). We therefore use a constraint set
// chosen to reproduce the published results exactly: (i) at most one
// platter of a set per blast zone (one shelf of one rack), (ii)
// vertical separation of at least 4 shelves between same-set platters
// in one rack (a failed shuttle spans two rails and obstructs its
// neighbourhood), and (iii) at most 11 same-set platters in any 4
// consecutive storage racks (the roam radius of a failed shuttle's
// rescue). Under these, 12+3 sets need 6 racks, 16+3 need 7, 24+3
// need 10 — Table 1's exact figures.
package layout

import (
	"fmt"
	"sort"

	"silica/internal/geometry"
	"silica/internal/media"
	"silica/internal/metadata"
	"silica/internal/staging"
)

// Placement constraints (see package comment).
const (
	// MinVerticalSep is the minimum shelf distance between two
	// same-set platters within one rack.
	MinVerticalSep = 4
	// WindowRacks / WindowCap: at most WindowCap same-set platters in
	// any WindowRacks consecutive storage racks.
	WindowRacks = 4
	WindowCap   = 11
	// MinLibraryRacks: "based on our design, a library needs at least
	// six storage racks" (§6).
	MinLibraryRacks = 6
)

// WriteOverhead is Table 1's "redundancy overhead at write drive":
// redundant platters over information platters.
func WriteOverhead(info, red int) float64 {
	return float64(red) / float64(info)
}

// maxPerRack is the per-rack cap implied by MinVerticalSep with
// shelvesPerRack shelves (e.g. shelves 0, 4, 8 for 10 shelves → 3).
func maxPerRack(shelvesPerRack int) int {
	return (shelvesPerRack-1)/MinVerticalSep + 1
}

// rackCapacity computes the maximum same-set platters placeable in
// `racks` storage racks under the per-rack and window constraints,
// via dynamic programming over the last WindowRacks-1 rack counts.
func rackCapacity(racks, shelvesPerRack int) int {
	perRack := maxPerRack(shelvesPerRack)
	if racks <= 0 {
		return 0
	}
	// State: counts of the last up-to-3 racks, encoded base
	// (perRack+1). Value: best total so far.
	type state struct{ a, b, c int } // previous three rack counts
	best := map[state]int{{0, 0, 0}: 0}
	for r := 0; r < racks; r++ {
		next := make(map[state]int, len(best))
		for st, tot := range best {
			for x := 0; x <= perRack; x++ {
				if st.a+st.b+st.c+x > WindowCap {
					continue
				}
				ns := state{st.b, st.c, x}
				if v, ok := next[ns]; !ok || tot+x > v {
					next[ns] = tot + x
				}
			}
		}
		best = next
	}
	m := 0
	for _, v := range best {
		if v > m {
			m = v
		}
	}
	return m
}

// MinStorageRacks reproduces Table 1: the minimum storage racks a
// library needs to host platter-sets of the given size, with
// shelvesPerRack shelves (the paper's prototype has 10).
func MinStorageRacks(setSize, shelvesPerRack int) int {
	for racks := 1; ; racks++ {
		if rackCapacity(racks, shelvesPerRack) >= setSize {
			if racks < MinLibraryRacks {
				return MinLibraryRacks
			}
			return racks
		}
	}
}

// Placer assigns platter-set members to storage slots, enforcing the
// blast-zone constraints and preferring the least-occupied areas (§6).
type Placer struct {
	layout   *geometry.Layout
	slotUsed map[geometry.SlotAddr]bool
	zoneLoad map[geometry.BlastZone]int // platters per zone (any set)
}

// NewPlacer builds a placer over a library floor plan.
func NewPlacer(l *geometry.Layout) *Placer {
	return &Placer{
		layout:   l,
		slotUsed: make(map[geometry.SlotAddr]bool),
		zoneLoad: make(map[geometry.BlastZone]int),
	}
}

// Occupied reports the number of slots placed so far.
func (p *Placer) Occupied() int { return len(p.slotUsed) }

// PlaceSet chooses home slots for one platter-set of n members such
// that no two members share a blast zone, same-rack members are at
// least MinVerticalSep shelves apart, and any WindowRacks consecutive
// racks hold at most WindowCap members. Among feasible slots it
// prefers the least-occupied zones, spreading load across the library.
func (p *Placer) PlaceSet(n int) ([]geometry.SlotAddr, error) {
	storage := p.layout.StorageRacks()
	if cap := rackCapacity(len(storage), p.layout.ShelvesPerRack); n > cap {
		return nil, fmt.Errorf("layout: set of %d exceeds library capacity %d (need %d storage racks)",
			n, cap, MinStorageRacks(n, p.layout.ShelvesPerRack))
	}
	// rackIdx position within the storage sequence (for windows).
	rackSeq := make(map[int]int, len(storage))
	for i, r := range storage {
		rackSeq[r] = i
	}
	perRackShelves := make(map[int][]int) // rack -> shelves used by this set
	perSeqCount := make([]int, len(storage))
	var chosen []geometry.SlotAddr

	for len(chosen) < n {
		best := geometry.SlotAddr{Rack: -1}
		bestCap := -1
		bestLoad := 1 << 30
		for _, rack := range storage {
			seq := rackSeq[rack]
			// Window constraint.
			ok := true
			for w := seq - WindowRacks + 1; w <= seq; w++ {
				if w < 0 || w+WindowRacks > len(storage) {
					continue
				}
				sum := 1
				for k := w; k < w+WindowRacks; k++ {
					sum += perSeqCount[k]
				}
				if sum > WindowCap {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for shelf := 0; shelf < p.layout.ShelvesPerRack; shelf++ {
				// Vertical separation within the rack.
				sepOK := true
				for _, used := range perRackShelves[rack] {
					d := shelf - used
					if d < 0 {
						d = -d
					}
					if d < MinVerticalSep {
						sepOK = false
						break
					}
				}
				if !sepOK {
					continue
				}
				zone := geometry.BlastZone{Rack: rack, Shelf: shelf}
				slot, found := p.freeSlotInZone(zone)
				if !found {
					continue
				}
				// Primary criterion: don't strand rack capacity — a
				// shelf choice that leaves more future same-set room
				// in this rack wins; zone load breaks ties so sets
				// spread over the least-occupied areas (§6).
				capAfter := shelfChainCapacity(append(append([]int(nil),
					perRackShelves[rack]...), shelf), p.layout.ShelvesPerRack)
				load := p.zoneLoad[zone]
				if capAfter > bestCap || (capAfter == bestCap && load < bestLoad) {
					bestCap = capAfter
					bestLoad = load
					best = slot
				}
			}
		}
		if best.Rack < 0 {
			return nil, fmt.Errorf("layout: no feasible slot for member %d of %d (library too full)", len(chosen)+1, n)
		}
		p.slotUsed[best] = true
		zone := geometry.SlotZone(best)
		p.zoneLoad[zone]++
		perRackShelves[best.Rack] = append(perRackShelves[best.Rack], best.Shelf)
		perSeqCount[rackSeq[best.Rack]]++
		chosen = append(chosen, best)
	}
	return chosen, nil
}

// shelfChainCapacity reports how many same-set platters a rack can
// ultimately hold given the shelves already used: the used shelves
// plus the largest extension respecting MinVerticalSep (greedy
// ascending scan, optimal on a line).
func shelfChainCapacity(used []int, shelves int) int {
	sort.Ints(used)
	count := len(used)
	occupied := append([]int(nil), used...)
	for s := 0; s < shelves; s++ {
		ok := true
		for _, u := range occupied {
			d := s - u
			if d < 0 {
				d = -d
			}
			if d < MinVerticalSep {
				ok = false
				break
			}
		}
		if ok {
			occupied = append(occupied, s)
			count++
		}
	}
	return count
}

func (p *Placer) freeSlotInZone(z geometry.BlastZone) (geometry.SlotAddr, bool) {
	for s := 0; s < p.layout.SlotsPerShelf; s++ {
		a := geometry.SlotAddr{Rack: z.Rack, Shelf: z.Shelf, Slot: s}
		if !p.slotUsed[a] {
			return a, true
		}
	}
	return geometry.SlotAddr{}, false
}

// ValidateSet checks the §6 invariant for an existing placement: no
// two members of a set share a blast zone.
func ValidateSet(slots []geometry.SlotAddr) error {
	seen := make(map[geometry.BlastZone]int, len(slots))
	for i, s := range slots {
		z := geometry.SlotZone(s)
		if j, dup := seen[z]; dup {
			return fmt.Errorf("layout: members %d and %d share blast zone %+v", j, i, z)
		}
		seen[z] = i
	}
	return nil
}

// Placement locates one file shard inside a platter plan.
type Placement struct {
	Key         metadata.FileKey
	Version     int
	Shard       int
	FirstSector int // linear information-sector position
	SectorCount int
	Bytes       int64
}

// FileID names the staged file the shard was cut from.
func (p Placement) FileID() staging.ID { return staging.ID{Key: p.Key, Version: p.Version} }

// PlatterPlan is the content of one information platter to be written.
type PlatterPlan struct {
	Entries     []Placement
	SectorsUsed int
}

// AssignFiles packs a batch of staged files into platter plans (§6):
// files are laid down in batch order (the staging tier already groups
// by account and arrival) at consecutive information-sector positions
// (information sector i sits on information track
// i/InfoSectorsPerTrack); files larger than shardSectors split into
// shards on distinct platters to parallelize large reads. shardSectors
// must be at least 1 and at most a platter's information capacity.
func AssignFiles(batch []*staging.File, geom media.Geometry, shardSectors int) []*PlatterPlan {
	platterInfoSectors := geom.InfoTracksPerPlatter() * geom.InfoSectorsPerTrack
	var plans []*PlatterPlan
	cur := &PlatterPlan{}
	plans = append(plans, cur)
	for _, f := range batch {
		sectors := int((f.Size + int64(geom.SectorPayloadBytes) - 1) / int64(geom.SectorPayloadBytes))
		if sectors < 1 {
			sectors = 1
		}
		remaining := sectors
		shard := 0
		bytesLeft := f.Size
		for remaining > 0 {
			take := remaining
			if take > shardSectors {
				take = shardSectors
			}
			// Shards of one file go to distinct platters; open a new
			// plan when the current one is full or already holds an
			// earlier shard of this file.
			if cur.SectorsUsed+take > platterInfoSectors || (shard > 0 && planHolds(cur, f)) {
				cur = &PlatterPlan{}
				plans = append(plans, cur)
			}
			b := int64(take) * int64(geom.SectorPayloadBytes)
			if b > bytesLeft {
				b = bytesLeft
			}
			cur.Entries = append(cur.Entries, Placement{
				Key:         f.Key,
				Version:     f.Version,
				Shard:       shard,
				FirstSector: cur.SectorsUsed,
				SectorCount: take,
				Bytes:       b,
			})
			cur.SectorsUsed += take
			remaining -= take
			bytesLeft -= b
			shard++
		}
	}
	// Drop a trailing empty plan.
	if len(plans) > 0 && plans[len(plans)-1].SectorsUsed == 0 {
		plans = plans[:len(plans)-1]
	}
	return plans
}

func planHolds(p *PlatterPlan, f *staging.File) bool {
	for _, e := range p.Entries {
		if e.FileID() == f.ID() {
			return true
		}
	}
	return false
}

// SectorTracks reports the track span [first, last] touched by an
// information-sector extent, used to build read requests: track =
// infoSector / InfoSectorsPerTrack.
func SectorTracks(geom media.Geometry, firstSector, count int) (firstTrack, trackCount int) {
	if count < 1 {
		count = 1
	}
	first := firstSector / geom.InfoSectorsPerTrack
	last := (firstSector + count - 1) / geom.InfoSectorsPerTrack
	return first, last - first + 1
}
