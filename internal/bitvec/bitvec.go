// Package bitvec provides a compact, fixed-length bit vector used by the
// error-correcting-code layers: BCH message/parity words, Gray-coded cell
// payloads, and fault masks. Bits are indexed from 0; storage is packed
// 64 bits per word.
package bitvec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
)

// Vector is a fixed-length sequence of bits. The zero value is an empty
// vector; use New for a sized one.
type Vector struct {
	w []uint64
	n int
}

// New returns an all-zero vector of n bits.
func New(n int) Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return Vector{w: make([]uint64, (n+63)/64), n: n}
}

// FromBytes builds a vector of n bits from packed little-endian bytes
// (bit i is byte i/8, bit i%8). Bits of the last byte at or past n are
// ignored.
func FromBytes(b []byte, n int) Vector {
	if n > len(b)*8 {
		panic("bitvec: FromBytes length exceeds data")
	}
	v := New(n)
	v.SetBytes(b)
	return v
}

// SetBytes overwrites v with the first Len bits of packed little-endian
// bytes, as FromBytes reads them, reusing v's storage.
func (v Vector) SetBytes(b []byte) {
	if v.n > len(b)*8 {
		panic("bitvec: SetBytes length exceeds data")
	}
	nb := (v.n + 7) / 8
	full := nb / 8
	for i := 0; i < full; i++ {
		v.w[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	if full < len(v.w) {
		v.w[full] = 0
		for i := 8 * full; i < nb; i++ {
			v.w[full] |= uint64(b[i]) << (8 * (i & 7))
		}
	}
	v.clearTail()
}

// Bytes packs the vector into little-endian bytes (inverse of FromBytes).
func (v Vector) Bytes() []byte {
	out := make([]byte, (v.n+7)/8)
	for i := range out {
		out[i] = byte(v.w[i>>3] >> (8 * (i & 7)))
	}
	return out
}

// Words returns the packed storage: bit i is bit i%64 of word i/64, and
// the bits of the last word at or past Len are zero. The slice aliases
// the vector and must not be modified.
func (v Vector) Words() []uint64 { return v.w }

// clearTail zeroes the bits of the last word at or past n, the
// invariant Equal and OnesCount rely on.
func (v Vector) clearTail() {
	if r := v.n & 63; r != 0 {
		v.w[len(v.w)-1] &= 1<<r - 1
	}
}

// Len returns the number of bits.
func (v Vector) Len() int { return v.n }

// Get returns bit i as 0 or 1.
func (v Vector) Get(i int) uint {
	v.check(i)
	return uint(v.w[i>>6]>>(i&63)) & 1
}

// Set assigns bit i to the low bit of val.
func (v Vector) Set(i int, val uint) {
	v.check(i)
	mask := uint64(1) << (i & 63)
	if val&1 != 0 {
		v.w[i>>6] |= mask
	} else {
		v.w[i>>6] &^= mask
	}
}

// Flip inverts bit i.
func (v Vector) Flip(i int) {
	v.check(i)
	v.w[i>>6] ^= 1 << (i & 63)
}

// check panics on out-of-range access.
func (v Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Clone returns an independent copy.
func (v Vector) Clone() Vector {
	out := Vector{w: make([]uint64, len(v.w)), n: v.n}
	copy(out.w, v.w)
	return out
}

// Xor sets v ^= other. Lengths must match.
func (v Vector) Xor(other Vector) {
	if v.n != other.n {
		panic("bitvec: Xor length mismatch")
	}
	for i := range v.w {
		v.w[i] ^= other.w[i]
	}
}

// Equal reports whether two vectors have identical length and contents.
func (v Vector) Equal(other Vector) bool {
	if v.n != other.n {
		return false
	}
	for i := range v.w {
		if v.w[i] != other.w[i] {
			return false
		}
	}
	return true
}

// OnesCount returns the number of set bits.
func (v Vector) OnesCount() int {
	c := 0
	for _, w := range v.w {
		c += bits.OnesCount64(w)
	}
	return c
}

// NextSet returns the index of the first set bit at or after i, or -1.
func (v Vector) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	for i < v.n {
		word := v.w[i>>6] >> (i & 63)
		if word != 0 {
			j := i + bits.TrailingZeros64(word)
			if j >= v.n {
				return -1
			}
			return j
		}
		i = (i>>6 + 1) << 6
	}
	return -1
}

// Slice returns a copy of bits [from, to).
func (v Vector) Slice(from, to int) Vector {
	if from < 0 || to > v.n || from > to {
		panic("bitvec: bad slice bounds")
	}
	out := New(to - from)
	for i := range out.w {
		out.w[i] = v.uint(from+64*i, min(64, out.n-64*i))
	}
	return out
}

// CopyFrom writes src into v starting at offset dst.
func (v Vector) CopyFrom(src Vector, dst int) {
	if dst < 0 || dst+src.n > v.n {
		panic("bitvec: CopyFrom out of range")
	}
	for i, w := range src.w {
		v.setUint(dst+64*i, min(64, src.n-64*i), w)
	}
}

// Uint returns bits [from, from+width) as an integer, bit from being the
// least significant. width must be <= 64.
func (v Vector) Uint(from, width int) uint64 {
	if width < 0 || width > 64 || from < 0 || from+width > v.n {
		panic("bitvec: bad Uint range")
	}
	return v.uint(from, width)
}

// SetUint writes the low width bits of val at [from, from+width).
func (v Vector) SetUint(from, width int, val uint64) {
	if width < 0 || width > 64 || from < 0 || from+width > v.n {
		panic("bitvec: bad SetUint range")
	}
	v.setUint(from, width, val)
}

// uint is Uint without the range check; the range spans at most two
// words.
func (v Vector) uint(from, width int) uint64 {
	if width == 0 {
		return 0
	}
	i, sh := from>>6, from&63
	out := v.w[i] >> sh
	if sh+width > 64 {
		out |= v.w[i+1] << (64 - sh)
	}
	return out & (^uint64(0) >> (64 - width))
}

// setUint is SetUint without the range check.
func (v Vector) setUint(from, width int, val uint64) {
	if width == 0 {
		return
	}
	mask := ^uint64(0) >> (64 - width)
	val &= mask
	i, sh := from>>6, from&63
	v.w[i] = v.w[i]&^(mask<<sh) | val<<sh
	if sh+width > 64 {
		v.w[i+1] = v.w[i+1]&^(mask>>(64-sh)) | val>>(64-sh)
	}
}

// String renders the bits most-significant-last, for debugging.
func (v Vector) String() string {
	var sb strings.Builder
	for i := 0; i < v.n; i++ {
		if v.Get(i) != 0 {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}
