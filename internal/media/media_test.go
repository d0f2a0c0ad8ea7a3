package media

import (
	"bytes"
	"testing"
)

// mapGlass is a Glass over a map, for the lifecycle tests: it holds
// whatever is written, at any address.
type mapGlass map[SectorID][]byte

func (m mapGlass) WriteSector(id SectorID, data []byte) error {
	m[id] = bytes.Clone(data)
	return nil
}

func (m mapGlass) ReadSectorInto(id SectorID, dst []byte) ([]byte, bool) {
	data, ok := m[id]
	if !ok {
		return nil, false
	}
	return append(dst[:0], data...), true
}

func TestDefaultGeometryPaperScale(t *testing.T) {
	g := DefaultGeometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// §3: sectors carry "upwards of 100 kB", tracks are the minimum
	// read unit of ~100 sectors, platters store "multiple TBs".
	if g.SectorPayloadBytes < 100_000 {
		t.Fatalf("sector payload = %d", g.SectorPayloadBytes)
	}
	if g.TrackUserBytes() != 10_000_000 {
		t.Fatalf("track user bytes = %d, want 10 MB", g.TrackUserBytes())
	}
	user := g.PlatterUserBytes()
	if user < 1_900_000_000_000 || user > 2_100_000_000_000 {
		t.Fatalf("platter user bytes = %d, want ~2 TB", user)
	}
	// Raw scan volume must exceed user volume (coding + redundancy).
	if int64(g.TracksPerPlatter)*g.TrackRawBytes() <= user {
		t.Fatal("raw bytes should exceed user bytes")
	}
}

func TestGeometryValidation(t *testing.T) {
	bad := []Geometry{
		{SectorPayloadBytes: 0, InfoSectorsPerTrack: 1, TracksPerPlatter: 1, LargeGroupInfoTracks: 1, CodingExpansion: 1.2},
		{SectorPayloadBytes: 10, InfoSectorsPerTrack: 0, TracksPerPlatter: 1, LargeGroupInfoTracks: 1, CodingExpansion: 1.2},
		{SectorPayloadBytes: 10, InfoSectorsPerTrack: 1, TracksPerPlatter: 0, LargeGroupInfoTracks: 1, CodingExpansion: 1.2},
		{SectorPayloadBytes: 10, InfoSectorsPerTrack: 1, TracksPerPlatter: 1, LargeGroupInfoTracks: 0, CodingExpansion: 1.2},
		{SectorPayloadBytes: 10, InfoSectorsPerTrack: 1, TracksPerPlatter: 1, LargeGroupInfoTracks: 1, CodingExpansion: 0.9},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Fatalf("geometry %d should be invalid", i)
		}
	}
}

func TestInfoTracksAccounting(t *testing.T) {
	g := Geometry{
		SectorPayloadBytes: 10, InfoSectorsPerTrack: 2, RedundancySectorsPerTrack: 1,
		TracksPerPlatter: 25, LargeGroupInfoTracks: 10, LargeGroupRedTracks: 2,
		CodingExpansion: 1.2,
	}
	// Two full groups of 12 (20 info) plus 1 remaining track. The tail
	// group needs its 2 redundancy tracks before it can store info, so
	// a single leftover track holds nothing.
	if got := g.InfoTracksPerPlatter(); got != 20 {
		t.Fatalf("info tracks = %d, want 20", got)
	}
	// An 11-track tail holds 2 redundancy tracks + 9 info tracks.
	g.TracksPerPlatter = 35 // 2 groups (24, 20 info) + 11 remainder -> 20 + 9
	if got := g.InfoTracksPerPlatter(); got != 29 {
		t.Fatalf("info tracks = %d, want 29", got)
	}
	// Tail redundancy stays inside the platter: group 2 starts at track
	// 24, its 9 info tracks end at 32, red tracks land on 33 and 34.
	if got := g.LargeGroupRedTrack(2, 1); got != 34 {
		t.Fatalf("tail red track = %d, want 34", got)
	}
	if phys := g.InfoTrackPhysical(g.InfoTracksPerPlatter() - 1); phys >= g.LargeGroupRedTrack(2, 0) {
		t.Fatalf("last info track %d overlaps tail redundancy %d", phys, g.LargeGroupRedTrack(2, 0))
	}
}

func TestPlatterLifecycleHappyPath(t *testing.T) {
	p := NewPlatter(1, TinyGeometry())
	steps := []PlatterState{Writing, Written, Verifying, Stored}
	for _, s := range steps {
		if err := p.Transition(s); err != nil {
			t.Fatal(err)
		}
	}
	if p.State() != Stored {
		t.Fatalf("state = %v", p.State())
	}
}

func TestPlatterIllegalTransitions(t *testing.T) {
	cases := []struct {
		path []PlatterState
		next PlatterState
	}{
		{nil, Written},                       // can't skip writing
		{nil, Stored},                        // can't skip everything
		{[]PlatterState{Writing}, Blank},     // WORM: no path back to blank
		{[]PlatterState{Writing}, Verifying}, // must eject first
		{[]PlatterState{Writing, Written, Verifying, Stored}, Writing}, // air gap
		{[]PlatterState{Writing, Faulted}, Writing},
	}
	for i, c := range cases {
		p := NewPlatter(PlatterID(i), TinyGeometry())
		for _, s := range c.path {
			if err := p.Transition(s); err != nil {
				t.Fatalf("case %d: setup transition to %v failed: %v", i, s, err)
			}
		}
		if err := p.Transition(c.next); err == nil {
			t.Fatalf("case %d: illegal transition to %v allowed from %v", i, c.next, p.State())
		}
	}
}

// TestAirGapInvariant verifies the paper's air-gap-by-design property:
// Writing, the one state a write drive holds, is entered from Blank
// alone, so no written platter can re-enter a write drive.
func TestAirGapInvariant(t *testing.T) {
	for from, nexts := range legalTransitions {
		for _, next := range nexts {
			if next == Writing && from != Blank {
				t.Fatalf("air gap violated: %v -> %v is legal", from, next)
			}
		}
	}
	if err := NewPlatter(1, TinyGeometry()).Transition(Writing); err != nil {
		t.Fatalf("a blank platter cannot enter the write drive: %v", err)
	}
}

func TestWORMSectorWrites(t *testing.T) {
	p := NewPlatter(1, TinyGeometry())
	id := SectorID{Track: 0, Sector: 0}
	if err := p.WriteSector(id, []uint8{1, 2}); err == nil {
		t.Fatal("write in blank state allowed")
	}
	glass := mapGlass{}
	if err := p.Load(glass); err != nil {
		t.Fatal(err)
	}
	if err := p.Load(mapGlass{}); err == nil {
		t.Fatal("a platter in the write drive was loaded again")
	}
	if err := p.WriteSector(id, []uint8{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteSector(id, []uint8{3, 4}); err == nil {
		t.Fatal("overwrite allowed on WORM media")
	}
	if err := p.WriteSector(SectorID{Track: 999, Sector: 0}, nil); err == nil {
		t.Fatal("out-of-range sector accepted")
	}
	got, ok := p.ReadSectorInto(id, nil)
	if !ok || len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("read back %v, %v", got, ok)
	}
	// Mutating the returned slice must not affect the media.
	got[0] = 99
	again, _ := p.ReadSectorInto(id, got)
	if again[0] != 1 {
		t.Fatal("ReadSectorInto aliases internal storage")
	}
	if _, ok := p.ReadSectorInto(SectorID{Track: 1, Sector: 1}, nil); ok {
		t.Fatal("unwritten sector readable")
	}
	if len(glass) != 1 {
		t.Fatalf("the glass holds %d sectors, want 1", len(glass))
	}
}

func TestStateString(t *testing.T) {
	if Blank.String() != "blank" || Faulted.String() != "faulted" {
		t.Fatal("state names wrong")
	}
	if PlatterState(42).String() != "state(42)" {
		t.Fatal("unknown state should format numerically")
	}
}

// TestWORMRefusesAMismatchedLength: a platter's sectors share one
// length.
func TestWORMRefusesAMismatchedLength(t *testing.T) {
	p := NewPlatter(1, TinyGeometry())
	glass := mapGlass{}
	if err := p.Load(glass); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteSector(SectorID{Track: 0, Sector: 0}, make([]uint8, 6)); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{5, 7, 0} {
		if err := p.WriteSector(SectorID{Track: 4, Sector: 2}, make([]uint8, n)); err == nil {
			t.Fatalf("a %d-byte sector accepted beside a 6-byte one", n)
		}
	}
	if len(glass) != 1 {
		t.Fatalf("the glass holds %d sectors after refusals, want 1", len(glass))
	}
}
