package geometry

import (
	"testing"
)

func defaultLayout(t testing.TB) *Layout {
	t.Helper()
	l, err := NewLayout(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestDefaultLayoutShape(t *testing.T) {
	l := defaultLayout(t)
	// Paper MDU: write rack, read rack, storage racks, trailing read
	// rack.
	if l.Racks[0].Kind != WriteRack {
		t.Fatal("first rack must be the write rack")
	}
	if l.Racks[1].Kind != ReadRack {
		t.Fatal("second rack must be a read rack")
	}
	if l.Racks[len(l.Racks)-1].Kind != ReadRack {
		t.Fatal("last rack must be a read rack")
	}
	for i := 2; i < len(l.Racks)-1; i++ {
		if l.Racks[i].Kind != StorageRack {
			t.Fatalf("rack %d should be storage", i)
		}
	}
	if l.NumDrives() != 20 {
		t.Fatalf("drives = %d, want 20", l.NumDrives())
	}
	if l.NumSlots() != 7*10*200 {
		t.Fatalf("slots = %d", l.NumSlots())
	}
}

func TestNewLayoutValidation(t *testing.T) {
	bad := []Config{
		{},
		{StorageRacks: 1, ReadRacks: 1, ShelvesPerRack: 5, SlotsPerShelf: 10, DrivesPerReadRack: 6},
	}
	for i, cfg := range bad {
		if _, err := NewLayout(cfg); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
}

func TestRackPositionsContiguous(t *testing.T) {
	l := defaultLayout(t)
	for i, r := range l.Racks {
		if r.X0 != float64(i)*RackWidth {
			t.Fatalf("rack %d at %v", i, r.X0)
		}
	}
	if l.Width() != float64(len(l.Racks))*RackWidth {
		t.Fatalf("width = %v", l.Width())
	}
}

// TestSlotAtIsBijection: SlotAt numbers every storage slot exactly once.
func TestSlotAtIsBijection(t *testing.T) {
	l := defaultLayout(t)
	storage := map[int]bool{}
	for _, r := range l.storageRacks {
		storage[r] = true
	}
	seen := map[SlotAddr]int{}
	for idx := 0; idx < l.NumSlots(); idx++ {
		a := l.SlotAt(idx)
		if !storage[a.Rack] || a.Shelf < 0 || a.Shelf >= l.ShelvesPerRack || a.Slot < 0 || a.Slot >= l.SlotsPerShelf {
			t.Fatalf("SlotAt(%d) = %+v is not a storage slot", idx, a)
		}
		if prev, dup := seen[a]; dup {
			t.Fatalf("SlotAt(%d) = SlotAt(%d) = %+v", idx, prev, a)
		}
		seen[a] = idx
	}
	if want := len(l.storageRacks) * l.ShelvesPerRack * l.SlotsPerShelf; len(seen) != want {
		t.Fatalf("%d slots numbered, want %d", len(seen), want)
	}
}

func TestSlotPosWithinRack(t *testing.T) {
	l := defaultLayout(t)
	for _, idx := range []int{0, 57, l.NumSlots() - 1} {
		a := l.SlotAt(idx)
		p := l.SlotPos(a)
		r := l.Racks[a.Rack]
		if p.X < r.X0 || p.X > r.X0+RackWidth {
			t.Fatalf("slot %d position %v outside its rack", idx, p.X)
		}
		if p.Rail != a.Shelf {
			t.Fatalf("slot rail %d != shelf %d", p.Rail, a.Shelf)
		}
	}
}

func TestDrivesEnumeration(t *testing.T) {
	l := defaultLayout(t)
	drives := l.Drives()
	if len(drives) != 20 {
		t.Fatalf("drives = %d", len(drives))
	}
	seen := map[DriveAddr]bool{}
	for _, d := range drives {
		if seen[d] {
			t.Fatalf("duplicate drive %+v", d)
		}
		seen[d] = true
		if l.Racks[d.Rack].Kind != ReadRack {
			t.Fatalf("drive %+v not in a read rack", d)
		}
		p := l.DrivePos(d)
		if p.Rail < 0 || p.Rail >= l.ShelvesPerRack {
			t.Fatalf("drive rail %d out of range", p.Rail)
		}
	}
}

func TestTravelBetween(t *testing.T) {
	tr := TravelBetween(Pos{X: 1, Rail: 2}, Pos{X: 4.5, Rail: 7})
	if tr.DistanceX != 3.5 || tr.Crabs != 5 {
		t.Fatalf("travel = %+v", tr)
	}
	tr = TravelBetween(Pos{X: 4.5, Rail: 7}, Pos{X: 1, Rail: 2})
	if tr.DistanceX != 3.5 || tr.Crabs != 5 {
		t.Fatalf("reverse travel = %+v", tr)
	}
}

func TestRackAtX(t *testing.T) {
	l := defaultLayout(t)
	if l.RackAtX(-1) != 0 {
		t.Fatal("negative x should clamp to 0")
	}
	if l.RackAtX(1e9) != len(l.Racks)-1 {
		t.Fatal("huge x should clamp to last rack")
	}
	if l.RackAtX(RackWidth*2.5) != 2 {
		t.Fatal("mid-rack x misassigned")
	}
}

func TestBlastZones(t *testing.T) {
	a := SlotAddr{Rack: 3, Shelf: 4, Slot: 9}
	z := SlotZone(a)
	if z.Rack != 3 || z.Shelf != 4 {
		t.Fatalf("zone = %+v", z)
	}
}

func checkPartitionInvariants(t *testing.T, l *Layout, n int) []Partition {
	t.Helper()
	parts, err := BuildPartitions(l, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != n {
		t.Fatalf("got %d partitions, want %d", len(parts), n)
	}
	for _, p := range parts {
		// §4.1: each partition must contain at least one read drive
		// slot.
		if len(p.Drives) == 0 {
			t.Fatalf("partition %d has no drives", p.ID)
		}
		if p.RailLo >= p.RailHi {
			t.Fatalf("partition %d empty rail band [%d,%d)", p.ID, p.RailLo, p.RailHi)
		}
		if p.X0 >= p.X1 {
			t.Fatalf("partition %d empty x span", p.ID)
		}
	}
	// Every storage slot belongs to exactly one partition.
	for idx := 0; idx < l.NumSlots(); idx += 37 {
		pos := l.SlotPos(l.SlotAt(idx))
		owners := 0
		for i := range parts {
			if parts[i].ContainsSlotPos(pos) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("slot %d owned by %d partitions", idx, owners)
		}
	}
	return parts
}

func TestBuildPartitionsSweep(t *testing.T) {
	l := defaultLayout(t)
	// The Fig 5(c) sweep range: 8 to 40 shuttles with 20 drives.
	for _, n := range []int{1, 2, 8, 12, 16, 20, 28, 40} {
		checkPartitionInvariants(t, l, n)
	}
}

func TestBuildPartitionsLimit(t *testing.T) {
	l := defaultLayout(t)
	if _, err := BuildPartitions(l, 41); err == nil {
		t.Fatal("should enforce 2 shuttles per drive limit")
	}
	if _, err := BuildPartitions(l, 0); err == nil {
		t.Fatal("zero partitions accepted")
	}
}

func TestPartitionsDisjointAcrossBands(t *testing.T) {
	l := defaultLayout(t)
	parts := checkPartitionInvariants(t, l, 20)
	// With 20 partitions and 10 rails the bands are single rails split
	// across halves; verify no two partitions overlap in (rail, x).
	for i := range parts {
		for j := i + 1; j < len(parts); j++ {
			a, b := &parts[i], &parts[j]
			railOverlap := a.RailLo < b.RailHi && b.RailLo < a.RailHi
			xOverlap := a.X0 < b.X1 && b.X0 < a.X1
			if railOverlap && xOverlap {
				t.Fatalf("partitions %d and %d overlap", a.ID, b.ID)
			}
		}
	}
}

func TestPartitionHome(t *testing.T) {
	l := defaultLayout(t)
	parts, _ := BuildPartitions(l, 8)
	for _, p := range parts {
		h := p.Home()
		if !p.ContainsSlotPos(h) {
			t.Fatalf("partition %d home %+v outside itself", p.ID, h)
		}
	}
}

func TestRackKindString(t *testing.T) {
	if WriteRack.String() != "write" || ReadRack.String() != "read" || StorageRack.String() != "storage" {
		t.Fatal("rack kind names")
	}
	if RackKind(7).String() != "rack(7)" {
		t.Fatal("unknown rack kind format")
	}
}
