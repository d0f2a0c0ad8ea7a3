package layout

import (
	"math"
	"testing"

	"silica/internal/geometry"
	"silica/internal/media"
	"silica/internal/metadata"
	"silica/internal/staging"
)

// TestTable1 reproduces the paper's Table 1 exactly.
func TestTable1(t *testing.T) {
	cases := []struct {
		info, red int
		overhead  float64
		racks     int
	}{
		{12, 3, 0.25, 6},
		{16, 3, 0.188, 7},
		{24, 3, 0.125, 10},
	}
	for _, c := range cases {
		if got := WriteOverhead(c.info, c.red); math.Abs(got-c.overhead) > 0.001 {
			t.Fatalf("%d+%d overhead = %v, want %v", c.info, c.red, got, c.overhead)
		}
		if got := MinStorageRacks(c.info+c.red, 10); got != c.racks {
			t.Fatalf("%d+%d racks = %d, want %d", c.info, c.red, got, c.racks)
		}
	}
}

func TestMinStorageRacksFloor(t *testing.T) {
	// §6: a library needs at least six storage racks, even for tiny
	// sets.
	if got := MinStorageRacks(4, 10); got != MinLibraryRacks {
		t.Fatalf("tiny set racks = %d, want %d", got, MinLibraryRacks)
	}
}

func TestRackCapacityDP(t *testing.T) {
	// 10 shelves -> 3 per rack; 4-rack window cap 11.
	if got := rackCapacity(1, 10); got != 3 {
		t.Fatalf("1 rack = %d, want 3", got)
	}
	if got := rackCapacity(3, 10); got != 9 {
		t.Fatalf("3 racks = %d, want 9", got)
	}
	if got := rackCapacity(4, 10); got != 11 {
		t.Fatalf("4 racks = %d, want 11 (window cap)", got)
	}
	if got := rackCapacity(0, 10); got != 0 {
		t.Fatal("0 racks should hold 0")
	}
	// Monotone in racks.
	prev := 0
	for r := 1; r <= 12; r++ {
		c := rackCapacity(r, 10)
		if c < prev {
			t.Fatalf("capacity not monotone at %d racks", r)
		}
		prev = c
	}
}

func testLayout(t *testing.T) *geometry.Layout {
	t.Helper()
	l, err := geometry.NewLayout(geometry.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestPlaceSetInvariants(t *testing.T) {
	l := testLayout(t)
	p := NewPlacer(l)
	slots, err := p.PlaceSet(19) // 16+3
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 19 {
		t.Fatalf("placed %d, want 19", len(slots))
	}
	if err := ValidateSet(slots); err != nil {
		t.Fatal(err)
	}
	// Vertical separation within racks.
	byRack := map[int][]int{}
	for _, s := range slots {
		byRack[s.Rack] = append(byRack[s.Rack], s.Shelf)
	}
	for rack, shelves := range byRack {
		for i := range shelves {
			for j := i + 1; j < len(shelves); j++ {
				d := shelves[i] - shelves[j]
				if d < 0 {
					d = -d
				}
				if d < MinVerticalSep {
					t.Fatalf("rack %d: shelves %d and %d too close", rack, shelves[i], shelves[j])
				}
			}
		}
	}
}

func TestPlaceManySets(t *testing.T) {
	l := testLayout(t)
	p := NewPlacer(l)
	for set := 0; set < 40; set++ {
		slots, err := p.PlaceSet(19)
		if err != nil {
			t.Fatalf("set %d: %v", set, err)
		}
		if err := ValidateSet(slots); err != nil {
			t.Fatalf("set %d: %v", set, err)
		}
	}
	if p.Occupied() != 40*19 {
		t.Fatalf("occupied = %d", p.Occupied())
	}
}

func TestPlaceSetSpreadsLoad(t *testing.T) {
	l := testLayout(t)
	p := NewPlacer(l)
	for set := 0; set < 20; set++ {
		if _, err := p.PlaceSet(19); err != nil {
			t.Fatal(err)
		}
	}
	// Load should spread across all storage racks, not pile up.
	counts := map[int]int{}
	for slot := range p.slotUsed {
		counts[slot.Rack]++
	}
	if len(counts) != len(l.StorageRacks()) {
		t.Fatalf("only %d racks used of %d", len(counts), len(l.StorageRacks()))
	}
	min, max := 1<<30, 0
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max > 3*min {
		t.Fatalf("rack load skew %d..%d", min, max)
	}
}

func TestPlaceSetTooLarge(t *testing.T) {
	l := testLayout(t)
	p := NewPlacer(l)
	// 7 storage racks, 10 shelves: capacity is bounded; a 60-member
	// set cannot fit.
	if _, err := p.PlaceSet(60); err == nil {
		t.Fatal("oversized set placed")
	}
}

func TestValidateSetDetectsSharedZone(t *testing.T) {
	slots := []geometry.SlotAddr{
		{Rack: 2, Shelf: 3, Slot: 0},
		{Rack: 2, Shelf: 3, Slot: 7},
	}
	if err := ValidateSet(slots); err == nil {
		t.Fatal("shared blast zone not detected")
	}
}

func file(name string, size int64) *staging.File {
	return &staging.File{
		Key:     metadata.FileKey{Account: "a", Name: name},
		Version: 1,
		Size:    size,
	}
}

func TestAssignFilesSimple(t *testing.T) {
	geom := media.TinyGeometry() // 1000-byte sectors, 8 info/track
	batch := []*staging.File{
		file("x", 2500), // 3 sectors
		file("y", 1000), // 1 sector
	}
	plans := AssignFiles(batch, geom, 8)
	if len(plans) != 1 {
		t.Fatalf("plans = %d, want 1", len(plans))
	}
	p := plans[0]
	if len(p.Entries) != 2 {
		t.Fatalf("entries = %d", len(p.Entries))
	}
	if p.Entries[0].FirstSector != 0 || p.Entries[0].SectorCount != 3 {
		t.Fatalf("x placement = %+v", p.Entries[0])
	}
	if p.Entries[1].FirstSector != 3 || p.Entries[1].SectorCount != 1 {
		t.Fatalf("y placement = %+v", p.Entries[1])
	}
	if p.SectorsUsed != 4 {
		t.Fatalf("sectors used = %d", p.SectorsUsed)
	}
}

func TestAssignFilesShardsLargeFiles(t *testing.T) {
	geom := media.TinyGeometry()
	// 20 sectors with an 8-sector shard cap -> 3 shards on 3 platters.
	batch := []*staging.File{file("big", 20000)}
	plans := AssignFiles(batch, geom, 8)
	if len(plans) != 3 {
		t.Fatalf("plans = %d, want 3", len(plans))
	}
	total := 0
	var bytes int64
	for i, p := range plans {
		if len(p.Entries) != 1 {
			t.Fatalf("plan %d entries = %d", i, len(p.Entries))
		}
		e := p.Entries[0]
		if e.Shard != i {
			t.Fatalf("plan %d shard = %d", i, e.Shard)
		}
		total += e.SectorCount
		bytes += e.Bytes
	}
	if total != 20 {
		t.Fatalf("total sectors = %d", total)
	}
	if bytes != 20000 {
		t.Fatalf("total bytes = %d", bytes)
	}
}

func TestAssignFilesFillsPlatters(t *testing.T) {
	geom := media.TinyGeometry()
	platterInfo := geom.InfoTracksPerPlatter() * geom.InfoSectorsPerTrack
	var batch []*staging.File
	// Enough one-sector files to fill 2.5 platters.
	n := platterInfo*5/2 + 1
	for i := 0; i < n; i++ {
		batch = append(batch, file(string(rune('a'+i%26))+string(rune('0'+i/26)), 1000))
	}
	plans := AssignFiles(batch, geom, platterInfo)
	if len(plans) != 3 {
		t.Fatalf("plans = %d, want 3", len(plans))
	}
	for i, p := range plans[:2] {
		if p.SectorsUsed != platterInfo {
			t.Fatalf("plan %d used %d/%d sectors", i, p.SectorsUsed, platterInfo)
		}
	}
}

func TestAssignFilesEmptyBatch(t *testing.T) {
	if plans := AssignFiles(nil, media.TinyGeometry(), 1); len(plans) != 0 {
		t.Fatalf("empty batch produced %d plans", len(plans))
	}
}

func TestSectorTracks(t *testing.T) {
	geom := media.TinyGeometry() // 8 info sectors per track
	cases := []struct {
		first, count, wantTrack, wantN int
	}{
		{0, 1, 0, 1},
		{0, 8, 0, 1},
		{0, 9, 0, 2},
		{7, 2, 0, 2},
		{8, 8, 1, 1},
		{20, 0, 2, 1},
		{8, 0, 1, 1},
	}
	for _, c := range cases {
		ft, n := SectorTracks(geom, c.first, c.count)
		if ft != c.wantTrack || n != c.wantN {
			t.Fatalf("SectorTracks(%d,%d) = %d,%d want %d,%d",
				c.first, c.count, ft, n, c.wantTrack, c.wantN)
		}
	}
}
