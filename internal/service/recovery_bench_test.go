package service

import (
	"fmt"
	"testing"
)

// The two benchmarks below witness the gather rule at the real operating
// point (DefaultChannel): "decodes/op" counts sectors pushed through the
// read pipeline. §7.6 prices a cross-platter recovery at I reads per
// sector returned; what exceeds SetInfo is the cost of direct decodes
// that failed (one more member read, or a within-track repair when the
// set runs out).

// BenchmarkDegradedGet reads single-sector objects whose platter has
// failed, so one op is one information sector recovered through the set
// and decodes/op is sector decodes per information sector returned.
func BenchmarkDegradedGet(b *testing.B) {
	cfg := smallSetConfig()
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// The small objects share the set's first platter; bulk files fill
	// out the other information members.
	const objects = 48
	for i := 0; i < objects; i++ {
		if _, err := s.Put("acct", fmt.Sprintf("small%d", i), randBytes(uint64(i), 900)); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	platterBytes := int(cfg.Geom.PlatterUserBytes())
	for i := 1; i < cfg.SetInfo; i++ {
		if _, err := s.Put("acct", fmt.Sprintf("bulk%d", i), randBytes(uint64(50+i), platterBytes*3/4)); err != nil {
			b.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.FailPlatter(platterOf(b, s, "acct", "small0")); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(900)
	b.ResetTimer()
	before, recovered := s.om.codecDecSectors.Value(), s.Stats().PlatterRecovers
	for i := 0; i < b.N; i++ {
		if _, err := s.Get("acct", fmt.Sprintf("small%d", i%objects)); err != nil {
			b.Fatal(err)
		}
	}
	if got := s.Stats().PlatterRecovers - recovered; got != b.N {
		b.Fatalf("%d sectors recovered through the set in %d single-sector Gets", got, b.N)
	}
	b.ReportMetric(float64(s.om.codecDecSectors.Value()-before)/float64(b.N), "decodes/op")
}

// BenchmarkRebuildPlatter rebuilds one information platter of a closed
// set per op: member reads, set decode, burn, and the replacement's
// verify read-back. decodes/op is at best used*SetInfo for the gather
// plus usedTracks*SectorsPerTrack for the read-back.
func BenchmarkRebuildPlatter(b *testing.B) {
	cfg := smallSetConfig()
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	fillSet(b, s, cfg)
	id := platterOf(b, s, "acct", "bulk0")
	if err := s.FailPlatter(id); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	before := s.om.codecDecSectors.Value()
	for i, refused := 0, 0; i < b.N; {
		// About one replacement in 500 honestly fails its read-back (more
		// than R_t bad sectors in a track) and the rebuild is run again,
		// as the repair manager would.
		newID, err := s.RebuildPlatter(id)
		if err != nil {
			if refused++; refused > 3 {
				b.Fatal(err)
			}
			continue
		}
		refused = 0
		id = newID
		i++
		if err := s.FailPlatter(id); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.om.codecDecSectors.Value()-before)/float64(b.N), "decodes/op")
}
