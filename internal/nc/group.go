// Package nc implements Silica's inter-sector erasure coding (§5):
// "network coding" groups of I information units and R redundancy
// units such that any I of the I+R units reconstruct the rest. Three
// levels are deployed, all built on the same Group primitive:
//
//   - within-track: I_t ≈ 100 information sectors + R_t ≈ 10 redundancy
//     sectors per track, repairing independent sector failures at no
//     extra read cost (the whole track is read anyway);
//   - large-group: I_l ≈ 100 information tracks + R_l ≈ 10 redundancy
//     tracks per group within a platter, repairing correlated in-track
//     failures;
//   - cross-platter: platter-sets of I_p=16 information + R_p=3
//     redundancy platters, repairing platter unavailability with a read
//     of the 16 matching tracks (16× amplification).
//
// Coefficients come from a Cauchy matrix: the code is MDS, so decode
// always succeeds with any I survivors. (The paper's construction draws
// seeded random linear combinations, which decode with high
// probability; the Cauchy code is its deterministic stand-in.)
package nc

import (
	"fmt"
	"sync"

	"silica/internal/gf256"
)

// Scheme selects how redundancy coefficients are generated.
type Scheme int

// Cauchy coefficients make the code MDS: any I of I+R units decode.
// It is the only scheme.
const Cauchy Scheme = 0

func (s Scheme) String() string {
	if s == Cauchy {
		return "cauchy"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// Group is an I+R erasure-coding group. Unit indices 0..I-1 are
// information units; I..I+R-1 are redundancy units.
type Group struct {
	I, R   int
	Scheme Scheme
	coeff  *gf256.Matrix // R x I

	mu       sync.Mutex
	inverses map[uint64]*gf256.Matrix // see inverse
}

// NewGroup builds a group. I+R must be at most 256 (the Cauchy
// matrix's field size bound). The Cauchy coefficients are fixed, so
// seed changes nothing.
func NewGroup(i, r int, scheme Scheme, seed uint64) (*Group, error) {
	if i <= 0 || r < 0 {
		return nil, fmt.Errorf("nc: invalid group %d+%d", i, r)
	}
	if scheme != Cauchy {
		return nil, fmt.Errorf("nc: unknown scheme %v", scheme)
	}
	if i+r > 256 {
		return nil, fmt.Errorf("nc: cauchy group %d+%d exceeds field size", i, r)
	}
	return &Group{I: i, R: r, Scheme: scheme, coeff: gf256.Cauchy(r, i)}, nil
}

// MustNewGroup is NewGroup for compiled-in parameters.
func MustNewGroup(i, r int, scheme Scheme, seed uint64) *Group {
	g, err := NewGroup(i, r, scheme, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// Size reports I+R.
func (g *Group) Size() int { return g.I + g.R }

// Overhead reports R/I, the write-time redundancy overhead of §6.
func (g *Group) Overhead() float64 { return float64(g.R) / float64(g.I) }

// EncodeRedundancy computes the R redundancy units from the I
// information units, each in a buffer of its own. All units must have
// equal length.
func (g *Group) EncodeRedundancy(info [][]byte) ([][]byte, error) {
	if len(info) != g.I {
		return nil, fmt.Errorf("nc: got %d information units, want %d", len(info), g.I)
	}
	out := make([][]byte, g.R)
	for r := range out {
		out[r] = make([]byte, len(info[0]))
	}
	return out, g.EncodeRedundancyInto(out, info)
}

// EncodeRedundancyInto is EncodeRedundancy into the caller's buffers:
// dst holds R units, each as long as the information units, and none
// may alias an information unit. It keeps no reference to dst or info
// and allocates nothing.
func (g *Group) EncodeRedundancyInto(dst, info [][]byte) error {
	if len(dst) != g.R {
		return fmt.Errorf("nc: got %d redundancy buffers, want %d", len(dst), g.R)
	}
	for r, red := range dst {
		if err := g.EncodeRowInto(red, r, info); err != nil {
			return err
		}
	}
	return nil
}

// EncodeRowInto computes redundancy unit r alone into dst, which must
// be as long as the information units and alias none of them: the
// dst[r] of EncodeRedundancyInto, for a caller that stores each
// redundancy unit apart and so computes each one once. It keeps no
// reference to dst or info and allocates nothing.
func (g *Group) EncodeRowInto(dst []byte, r int, info [][]byte) error {
	if r < 0 || r >= g.R {
		return fmt.Errorf("nc: redundancy unit %d outside [0,%d)", r, g.R)
	}
	if len(info) != g.I {
		return fmt.Errorf("nc: got %d information units, want %d", len(info), g.I)
	}
	for idx, u := range info {
		if len(u) != len(dst) {
			return fmt.Errorf("nc: unit %d has %d bytes, redundancy unit %d has %d", idx, len(u), r, len(dst))
		}
	}
	clear(dst)
	row := g.coeff.Row(r)
	for i, u := range info {
		gf256.MulAddVec(dst, u, row[i])
	}
	return nil
}

// Reconstruct recovers the information units listed in want, given any
// >= I available units keyed by unit index (info 0..I-1, redundancy
// I..I+R-1). It returns the recovered units keyed by index. Available
// information units in want are returned as-is. An error means not
// enough units or inconsistent sizes.
func (g *Group) Reconstruct(available map[int][]byte, want []int) (map[int][]byte, error) {
	for _, w := range want {
		if w < 0 || w >= g.I {
			return nil, fmt.Errorf("nc: want index %d outside information range [0,%d)", w, g.I)
		}
	}
	out := make(map[int][]byte, len(want))
	var inv *gf256.Matrix
	size := 0
	for _, w := range want {
		if u, ok := available[w]; ok {
			out[w] = u
			continue
		}
		if inv == nil {
			var err error
			if inv, size, err = g.inverse(available); err != nil {
				return nil, err
			}
		}
		out[w] = make([]byte, size)
		combine(out[w], inv.Row(w), available)
	}
	return out, nil
}

// ReconstructInto is Reconstruct of the one information unit want into
// dst, which must be as long as the units: an available want is copied.
// It keeps no reference to dst or available, and in a group of at most
// 64 units it allocates only on meeting an erasure pattern first.
func (g *Group) ReconstructInto(dst []byte, available map[int][]byte, want int) error {
	if want < 0 || want >= g.I {
		return fmt.Errorf("nc: want index %d outside information range [0,%d)", want, g.I)
	}
	if u, ok := available[want]; ok && len(u) == len(dst) {
		copy(dst, u)
		return nil
	}
	inv, size, err := g.inverse(available)
	if err == nil && size != len(dst) {
		err = fmt.Errorf("nc: inconsistent unit sizes")
	}
	if err == nil {
		combine(dst, inv.Row(want), available)
	}
	return err
}

// combine sets dst to sum_k row[k] * unit_k over the units inverse
// chose: the first I available, in index order.
func combine(dst, row []byte, available map[int][]byte) {
	clear(dst)
	for idx, k := 0, 0; k < len(row); idx++ {
		if u, ok := available[idx]; ok {
			gf256.MulAddVec(dst, u, row[k])
			k++
		}
	}
}

// inverse returns the decode matrix for the available units, and their
// size. It inverts the coding vectors of the first I in index order:
// information units first, whose identity rows keep it cheap. A group of
// at most 64 units caches it by the chosen units' bitmask (a 16+3 set
// has 969), starting over past 1024 inverses.
func (g *Group) inverse(available map[int][]byte) (*gf256.Matrix, int, error) {
	if len(available) < g.I {
		return nil, 0, fmt.Errorf("nc: %d units available, need %d", len(available), g.I)
	}
	for idx := range available {
		if idx < 0 || idx >= g.Size() {
			return nil, 0, fmt.Errorf("nc: unit index %d out of range", idx)
		}
	}
	var mask uint64
	size := -1
	for idx, n := 0, 0; n < g.I; idx++ {
		if u, ok := available[idx]; ok {
			if size >= 0 && len(u) != size {
				return nil, 0, fmt.Errorf("nc: inconsistent unit sizes")
			}
			size, mask, n = len(u), mask|1<<idx, n+1
		}
	}
	g.mu.Lock()
	inv := g.inverses[mask]
	g.mu.Unlock()
	if inv != nil {
		return inv, size, nil
	}
	a := gf256.NewMatrix(g.I, g.I)
	for idx, r := 0, 0; r < g.I; idx++ {
		if _, ok := available[idx]; !ok {
			continue
		} else if idx < g.I {
			a.Set(r, idx, 1)
		} else {
			copy(a.Row(r), g.coeff.Row(idx-g.I))
		}
		r++
	}
	inv, ok := a.Invert()
	if !ok {
		return nil, 0, fmt.Errorf("nc: singular decode matrix (%s scheme)", g.Scheme)
	}
	if g.Size() <= 64 {
		g.mu.Lock()
		if g.inverses == nil || len(g.inverses) >= 1024 {
			g.inverses = make(map[uint64]*gf256.Matrix)
		}
		g.inverses[mask] = inv
		g.mu.Unlock()
	}
	return inv, size, nil
}

// ReconstructAll recovers all I information units.
func (g *Group) ReconstructAll(available map[int][]byte) ([][]byte, error) {
	want := make([]int, g.I)
	for i := range want {
		want[i] = i
	}
	m, err := g.Reconstruct(available, want)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, g.I)
	for i := range out {
		out[i] = m[i]
	}
	return out, nil
}
