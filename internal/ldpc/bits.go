// Package ldpc implements the intra-sector error correction layer of
// Silica (§5): binary low-density parity-check codes. Each glass sector
// is protected by LDPC against read-time errors (stochastic sensor
// noise) with a per-sector checksum verifying the decode, exactly as the
// paper describes. Construction is a regular Gallager ensemble; decoding
// is layered normalized min-sum belief propagation over the soft
// per-voxel posteriors produced by the decode stack.
package ldpc

import "encoding/binary"

// bitset is a packed bit vector used during encoder construction and
// encoding, little-endian within each word.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) get(i int) bool { return b[i>>6]>>(uint(i)&63)&1 == 1 }

func (b bitset) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// xor accumulates other into b.
func (b bitset) xor(other bitset) {
	for i := range b {
		b[i] ^= other[i]
	}
}

func (b bitset) clone() bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

// packBytesInto packs p little-endian into words and zeroes every word
// past it, so bit i of p (LSB-first within each byte) is bit i%64 of
// words[i/64] and the bits beyond p read as zero.
func packBytesInto(p []byte, words []uint64) {
	n := len(p) >> 3
	for i := 0; i < n; i++ {
		words[i] = binary.LittleEndian.Uint64(p[i*8:])
	}
	clear(words[n:])
	for j, b := range p[n*8:] {
		words[n] |= uint64(b) << (8 * uint(j))
	}
}

// storeBytes is the inverse of packBytesInto: it fills p with the first
// len(p) bytes of words, little-endian.
func storeBytes(words []uint64, p []byte) {
	n := len(p) >> 3
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(p[i*8:], words[i])
	}
	for j := range p[n*8:] {
		p[n*8+j] = byte(words[n] >> (8 * uint(j)))
	}
}

// copyBits copies n bits of src, starting at bit sOff, to dst starting
// at bit dOff, both LSB-first; the other bits of dst keep their values.
// It moves up to 64 bits a step: one or two word reads and one or two
// masked word writes, so a word-aligned span is a word copy.
func copyBits(dst []uint64, dOff int, src []uint64, sOff, n int) {
	for n > 0 {
		k := min(n, 64)
		sw, ss := sOff>>6, uint(sOff&63)
		v := src[sw] >> ss
		if int(ss)+k > 64 {
			v |= src[sw+1] << (64 - ss)
		}
		mask := ^uint64(0) >> (64 - uint(k))
		v &= mask
		dw, ds := dOff>>6, uint(dOff&63)
		dst[dw] = dst[dw]&^(mask<<ds) | v<<ds
		if int(ds)+k > 64 {
			dst[dw+1] = dst[dw+1]&^(mask>>(64-ds)) | v>>(64-ds)
		}
		n, sOff, dOff = n-k, sOff+k, dOff+k
	}
}
