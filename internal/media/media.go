// Package media models the quartz-glass platter (§3): its geometry
// (voxels → sectors → tracks → platter, with information and
// redundancy tracks interleaved in large groups), capacity accounting
// including coding overheads, and the WORM platter lifecycle with the
// air-gap-by-design invariant (a written platter can never re-enter a
// write drive).
package media

import "fmt"

// Geometry fixes the layout of one platter model. The defaults follow
// the paper: sectors carry ~100 kB of user data, a track stacks ~100
// information sectors (plus in-track redundancy) through the Z layers
// and is the minimum read unit, and a platter stores multiple TB.
type Geometry struct {
	// SectorPayloadBytes is user payload per information sector.
	SectorPayloadBytes int
	// InfoSectorsPerTrack (I_t) and RedundancySectorsPerTrack (R_t)
	// define the within-track network group.
	InfoSectorsPerTrack       int
	RedundancySectorsPerTrack int
	// TracksPerPlatter counts all tracks, including large-group
	// redundancy tracks.
	TracksPerPlatter int
	// LargeGroupInfoTracks / LargeGroupRedTracks define the large-group
	// level: for every LargeGroupInfoTracks information tracks the
	// platter carries LargeGroupRedTracks redundancy tracks.
	LargeGroupInfoTracks int
	LargeGroupRedTracks  int
	// CodingExpansion is raw-coded-bits over payload-bits within a
	// sector (LDPC + framing), used to convert user bytes to the raw
	// bytes a drive must scan. 1.25 ≈ a rate-0.8 sector code.
	CodingExpansion float64
}

// DefaultGeometry returns the paper-scale platter: 100 kB sectors,
// 100+8 sectors per track, 2 TB of user data per platter.
func DefaultGeometry() Geometry {
	g := Geometry{
		SectorPayloadBytes:        100_000,
		InfoSectorsPerTrack:       100,
		RedundancySectorsPerTrack: 8,
		LargeGroupInfoTracks:      100,
		LargeGroupRedTracks:       2,
		CodingExpansion:           1.25,
	}
	// Choose the track count so user capacity lands at ~2 TB.
	g.TracksPerPlatter = int(2e12 / float64(g.TrackUserBytes()))
	return g
}

// TinyGeometry returns a platter small enough to push real bytes
// through the full codec in tests and examples.
func TinyGeometry() Geometry {
	return Geometry{
		SectorPayloadBytes:        1000,
		InfoSectorsPerTrack:       8,
		RedundancySectorsPerTrack: 2,
		TracksPerPlatter:          32,
		LargeGroupInfoTracks:      8,
		LargeGroupRedTracks:       1,
		CodingExpansion:           1.25,
	}
}

// Validate reports whether the geometry is self-consistent.
func (g Geometry) Validate() error {
	switch {
	case g.SectorPayloadBytes <= 0:
		return fmt.Errorf("media: sector payload must be positive")
	case g.InfoSectorsPerTrack <= 0 || g.RedundancySectorsPerTrack < 0:
		return fmt.Errorf("media: bad track shape %d+%d", g.InfoSectorsPerTrack, g.RedundancySectorsPerTrack)
	case g.TracksPerPlatter <= 0:
		return fmt.Errorf("media: platter needs tracks")
	case g.LargeGroupInfoTracks <= 0 || g.LargeGroupRedTracks < 0:
		return fmt.Errorf("media: bad large group %d+%d", g.LargeGroupInfoTracks, g.LargeGroupRedTracks)
	case g.CodingExpansion < 1:
		return fmt.Errorf("media: coding expansion %v < 1", g.CodingExpansion)
	}
	return nil
}

// SectorsPerTrack reports I_t + R_t.
func (g Geometry) SectorsPerTrack() int {
	return g.InfoSectorsPerTrack + g.RedundancySectorsPerTrack
}

// TrackUserBytes is the user payload capacity of one information track.
func (g Geometry) TrackUserBytes() int64 {
	return int64(g.SectorPayloadBytes) * int64(g.InfoSectorsPerTrack)
}

// TrackRawBytes is what the read drive must scan to read one track:
// every sector (information + redundancy) at coded size.
func (g Geometry) TrackRawBytes() int64 {
	raw := float64(g.SectorPayloadBytes) * g.CodingExpansion * float64(g.SectorsPerTrack())
	return int64(raw)
}

// InfoTracksPerPlatter is the number of tracks that hold user data
// (excludes large-group redundancy tracks).
func (g Geometry) InfoTracksPerPlatter() int {
	group := g.LargeGroupInfoTracks + g.LargeGroupRedTracks
	full := g.TracksPerPlatter / group
	rem := g.TracksPerPlatter % group
	info := full * g.LargeGroupInfoTracks
	// A partial tail group must still hold its redundancy tracks; only
	// the tracks left past them store user data. Counting them all as
	// info would let a full platter's tail-group redundancy land past
	// the platter edge.
	rem -= g.LargeGroupRedTracks
	if rem < 0 {
		rem = 0
	}
	if rem > g.LargeGroupInfoTracks {
		rem = g.LargeGroupInfoTracks
	}
	return info + rem
}

// PlatterUserBytes is the platter's user data capacity.
func (g Geometry) PlatterUserBytes() int64 {
	return int64(g.InfoTracksPerPlatter()) * g.TrackUserBytes()
}

// InfoTrackPhysical maps a logical information-track index to its
// physical track: information tracks and large-group redundancy
// tracks interleave in groups of LargeGroupInfoTracks +
// LargeGroupRedTracks.
func (g Geometry) InfoTrackPhysical(infoTrack int) int {
	group := infoTrack / g.LargeGroupInfoTracks
	offset := infoTrack % g.LargeGroupInfoTracks
	return group*(g.LargeGroupInfoTracks+g.LargeGroupRedTracks) + offset
}

// LargeGroupRedTrack returns the physical track of redundancy track j
// (0-based) of large group `group`. In the platter's partial tail
// group the redundancy tracks sit directly after its (shortened) info
// tracks, so they always fit inside the platter.
func (g Geometry) LargeGroupRedTrack(group, j int) int {
	start := group * (g.LargeGroupInfoTracks + g.LargeGroupRedTracks)
	info := g.LargeGroupInfoTracks
	if left := g.TracksPerPlatter - start; left < info+g.LargeGroupRedTracks {
		info = left - g.LargeGroupRedTracks
		if info < 0 {
			info = 0
		}
	}
	return start + info + j
}

// SectorID addresses one sector on a platter.
type SectorID struct {
	Track  int
	Sector int // index within the track, 0..SectorsPerTrack-1
}
