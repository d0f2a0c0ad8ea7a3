package media

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
)

// mapSource is a SectorSource over sectors held in a map, what a blob
// file is to the service.
type mapSource struct {
	sectors map[SectorID][]uint8
	closed  atomic.Bool
}

func (m *mapSource) ReadSectorInto(id SectorID, dst []uint8) ([]uint8, bool) {
	data, ok := m.sectors[id]
	if !ok || m.closed.Load() {
		return nil, false
	}
	return append(dst[:0], data...), true
}

func (m *mapSource) WrittenSectors() int { return len(m.sectors) }

func (m *mapSource) Close() error { m.closed.Store(true); return nil }

// burnTracks writes every sector of tracks [0, tracks) of p, each
// sector's bytes a function of its address and salt, and walks p to
// Stored; it returns what it wrote.
func burnTracks(t *testing.T, p *Platter, tracks int, salt uint8) map[SectorID][]uint8 {
	t.Helper()
	if err := p.Transition(Writing); err != nil {
		t.Fatal(err)
	}
	want := map[SectorID][]uint8{}
	for track := 0; track < tracks; track++ {
		for s := 0; s < p.Geom.SectorsPerTrack(); s++ {
			id := SectorID{Track: track, Sector: s}
			data := make([]uint8, 33)
			for i := range data {
				data[i] = uint8(i + track*7 + s*3 + int(salt)*11)
			}
			if err := p.WriteSector(id, data); err != nil {
				t.Fatal(err)
			}
			want[id] = data
		}
	}
	for _, next := range []PlatterState{Written, Verifying, Stored} {
		if err := p.Transition(next); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// TestShelveMovesGlassOutOfTheHeap: once shelved, a platter reads every
// sector from its source, its slabs go back to the free list up to the
// list's bound and the next platter built on the list writes into them,
// the sector walk refuses, and Close leaves every sector unreadable. A
// platter recovered with Shelved reads the same way.
func TestShelveMovesGlassOutOfTheHeap(t *testing.T) {
	g := TinyGeometry()
	slabs := NewSlabs(2)
	p := slabs.NewPlatter(1, g)
	if err := p.Shelve(&mapSource{}); err == nil {
		t.Fatal("a blank platter was shelved")
	}
	want := burnTracks(t, p, 3, 0)
	held := map[*byte]bool{}
	for _, tm := range p.tracks {
		held[&tm.slab[0]] = true
	}
	// The source holds other bytes than the slabs, so a read shows
	// where it came from.
	src := &mapSource{sectors: map[SectorID][]uint8{}}
	for id, data := range want {
		src.sectors[id] = append([]uint8{0xff}, data...)
	}
	if err := p.Shelve(src); err != nil {
		t.Fatal(err)
	}
	if err := p.Shelve(src); err == nil {
		t.Fatal("a platter was shelved twice")
	}
	for id, data := range src.sectors {
		if got, ok := p.ReadSectorInto(id, nil); !ok || !bytes.Equal(got, data) {
			t.Fatalf("sector %+v read %v, %v off a shelved platter; want the source's %v", id, got, ok, data)
		}
	}
	if p.tracks != nil || len(slabs.free) != 2 {
		t.Fatalf("after shelving: %d tracks still held, %d slabs on the list; want 0 and the list's bound 2", len(p.tracks), len(slabs.free))
	}
	if err := p.EachSector(func(SectorID, []uint8) error { return nil }); err == nil {
		t.Fatal("the sector walk ran over a shelved platter")
	}
	q := slabs.NewPlatter(2, g)
	burnTracks(t, q, 3, 5)
	reused := 0
	for _, tm := range q.tracks {
		if held[&tm.slab[0]] {
			reused++
		}
	}
	if reused != 2 {
		t.Fatalf("the next burn wrote %d of its 3 tracks into recycled slabs, want the 2 the list kept", reused)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.ReadSectorInto(SectorID{Track: 0, Sector: 0}, nil); ok {
		t.Fatal("a closed platter's sector still reads")
	}
	r := Shelved(3, g, &mapSource{sectors: want})
	if r.State() != Stored || r.WrittenSectors() != len(want) {
		t.Fatalf("Shelved platter: state %v, %d sectors; want stored, %d", r.State(), r.WrittenSectors(), len(want))
	}
	for id, data := range want {
		if got, ok := r.ReadSectorInto(id, nil); !ok || !bytes.Equal(got, data) {
			t.Fatalf("recovered sector %+v read %v, %v; want %v", id, got, ok, data)
		}
	}
}

// TestShelveRacesNoReader: readers copy a platter's sectors while it is
// shelved and its slabs are rewritten by the next burn at once. Every
// read must return the platter's own bytes, from the slabs or from the
// source, and the race detector (make race) must find no read of a slab
// the burn is writing.
func TestShelveRacesNoReader(t *testing.T) {
	g := TinyGeometry()
	slabs := NewSlabs(g.TracksPerPlatter)
	p := slabs.NewPlatter(1, g)
	want := burnTracks(t, p, 4, 0)
	var stop atomic.Bool
	var started, done sync.WaitGroup
	errs := make(chan string, 4)
	for w := 0; w < 4; w++ {
		started.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			var once sync.Once
			defer once.Do(started.Done)
			buf := make([]uint8, 0, 64)
			for !stop.Load() {
				for id, data := range want {
					got, ok := p.ReadSectorInto(id, buf)
					if !ok || !bytes.Equal(got, data) {
						errs <- "a read saw bytes the platter never held"
						return
					}
				}
				once.Do(started.Done)
			}
		}()
	}
	started.Wait()
	if err := p.Shelve(&mapSource{sectors: want}); err != nil {
		t.Fatal(err)
	}
	for i := PlatterID(2); i < 6; i++ {
		burnTracks(t, slabs.NewPlatter(i, g), 4, uint8(i))
	}
	stop.Store(true)
	done.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}
