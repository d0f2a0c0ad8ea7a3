// Package ldpc implements the intra-sector error correction layer of
// Silica (§5): binary low-density parity-check codes. Each glass sector
// is protected by LDPC against read-time errors (stochastic sensor
// noise) with a per-sector checksum verifying the decode, exactly as the
// paper describes. Construction is a regular Gallager ensemble; decoding
// is normalized min-sum belief propagation over the soft per-voxel
// posteriors produced by the decode stack, with a hard-decision
// bit-flipping decoder available as a cheap fallback.
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

// BitsToBytesInto packs a 0/1 slice LSB-first into out. len(bits) must
// be a multiple of 8 and out must hold len(bits)/8 bytes.
func BitsToBytesInto(bits []uint8, out []byte) {
	if len(bits)%8 != 0 {
		panic("ldpc: bit count not byte aligned")
	}
	for i := range out[:len(bits)/8] {
		var b byte
		for j := 0; j < 8; j++ {
			b |= byte(bits[i*8+j]&1) << uint(j)
		}
		out[i] = b
	}
}

// PackBitsInto packs a 0/1 slice LSB-first into 64-bit words, the
// layout the fast encode/decode paths operate on: bit i of the message
// lives at words[i/64] bit i%64, matching the little-endian byte packing
// of BitsToBytesInto word for word. words must hold at least
// (len(bits)+63)/64 entries. The unused high bits of the last
// written word are zeroed; words beyond that are left untouched.
func PackBitsInto(bits []uint8, words []uint64) {
	n := (len(bits) + 63) / 64
	for i := 0; i < n; i++ {
		words[i] = 0
	}
	for i, b := range bits {
		words[i>>6] |= uint64(b&1) << (uint(i) & 63)
	}
}

// UnpackBitsInto expands packed words back into a 0/1 slice; the inverse
// of PackBitsInto for the first len(bits) bits.
func UnpackBitsInto(words []uint64, bits []uint8) {
	for i := range bits {
		bits[i] = uint8(words[i>>6] >> (uint(i) & 63) & 1)
	}
}

// packBytesInto packs bytes little-endian into words, writing exactly
// (len(p)+7)/8 words. The unused high bytes of the last written word are
// zeroed; words beyond that are left untouched — sector scratch relies
// on this so its zero-padded tail survives reuse without re-zeroing.
func packBytesInto(p []byte, words []uint64) {
	n := len(p) >> 3
	for i := 0; i < n; i++ {
		words[i] = binary.LittleEndian.Uint64(p[i*8:])
	}
	if rem := len(p) & 7; rem != 0 {
		var w uint64
		for j := 0; j < rem; j++ {
			w |= uint64(p[n*8+j]) << (8 * uint(j))
		}
		words[n] = w
	}
}

// extractBits copies n bits of src starting at bit offset off into dst,
// bit 0 of dst[0] receiving src bit off. It writes (n+63)/64 words and
// zeroes the high bits of the last one. When off is not word-aligned the
// shifted read touches one word past the n-bit span, so src must carry a
// padding word beyond its live bits (sector scratch allocates one).
func extractBits(src []uint64, off, n int, dst []uint64) {
	w := off >> 6
	sh := uint(off & 63)
	words := (n + 63) / 64
	if sh == 0 {
		copy(dst[:words], src[w:w+words])
	} else {
		for i := 0; i < words; i++ {
			dst[i] = src[w+i]>>sh | src[w+i+1]<<(64-sh)
		}
	}
	if tail := uint(n) & 63; tail != 0 {
		dst[words-1] &= 1<<tail - 1
	}
}
