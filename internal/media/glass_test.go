package media_test

import (
	"reflect"
	"runtime"
	"testing"

	"silica/internal/media"
	"silica/internal/persist"
)

// burnImage burns sectors onto a fresh TinyGeometry platter whose glass
// is an in-memory blob laid out for exactly those sectors, the glass a
// platter has without a persist directory, and walks it to Stored.
func burnImage(t *testing.T, sectors map[media.SectorID][]byte, stride int) (*media.Platter, *persist.Blob) {
	t.Helper()
	g := media.TinyGeometry()
	blob := persist.NewBlobImage(7, g.SectorsPerTrack(), stride, func(mark func(media.SectorID)) {
		for id := range sectors {
			mark(id)
		}
	})
	p := media.NewPlatter(7, g)
	if err := p.Load(blob); err != nil {
		t.Fatal(err)
	}
	for id, data := range sectors {
		if err := p.WriteSector(id, data); err != nil {
			t.Fatal(err)
		}
	}
	for _, next := range []media.PlatterState{media.Written, media.Verifying, media.Stored} {
		if err := p.Transition(next); err != nil {
			t.Fatal(err)
		}
	}
	return p, blob
}

// TestSectorBytesRoundTrip: every byte value survives the glass at even
// and odd sector lengths, in every sector slot of a track; the platter
// stores a sector's bytes as given, and a platter recovered on the same
// glass reads them the same. A sector the glass does not hold does not
// read.
func TestSectorBytesRoundTrip(t *testing.T) {
	g := media.TinyGeometry()
	for _, n := range []int{1, 2, 15, 16, 17, 1344} {
		sectors := map[media.SectorID][]byte{}
		for s := 0; s < g.SectorsPerTrack(); s++ {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(i*7 + s*31)
			}
			sectors[media.SectorID{Track: 1, Sector: s}] = data
		}
		p, blob := burnImage(t, sectors, n)
		r := media.Recovered(p.ID, g, blob)
		if r.State() != media.Stored {
			t.Fatalf("a recovered platter is %v, want stored", r.State())
		}
		for _, q := range []*media.Platter{p, r} {
			for id, want := range sectors {
				got, ok := q.ReadSectorInto(id, make([]byte, 1, 4))
				if !ok || !reflect.DeepEqual(got, want) {
					t.Fatalf("%d bytes, sector %+v: read back %v, %v", n, id, got, ok)
				}
			}
			if _, ok := q.ReadSectorInto(media.SectorID{Track: 0, Sector: 0}, nil); ok {
				t.Fatal("a sector the glass does not hold was read")
			}
		}
	}
}

// TestPackedMediaDensity gates what a fully burned platter costs with
// no persist directory: its glass is one image of the blob's bytes, a
// header and the sectors at one stride, and the platter keeps a written
// bit per sector — at most 1.04 B per stored byte, where a copy per
// sector costs more than 2. A sector here is 1344 bytes, a
// TinyGeometry sector's 2688 data at the service's LDPC shape packed
// two a byte.
func TestPackedMediaDensity(t *testing.T) {
	g := media.TinyGeometry()
	const n = 1344
	sector := make([]byte, n)
	for i := range sector {
		sector[i] = byte(i)
	}
	sectors := map[media.SectorID][]byte{}
	for track := 0; track < g.TracksPerPlatter; track++ {
		for s := 0; s < g.SectorsPerTrack(); s++ {
			sectors[media.SectorID{Track: track, Sector: s}] = sector
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, _ := burnImage(t, sectors, n)
	runtime.ReadMemStats(&after)
	total := float64(len(sectors) * n)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / total
	t.Logf("a Stored TinyGeometry platter: %.0f sector bytes, %.4f B allocated per byte", total, perByte)
	if perByte > 1.04 {
		t.Errorf("burning a full platter allocated %.4f B per sector byte, want at most 1.04", perByte)
	}
	runtime.KeepAlive(p)
}
