// Package encoding implements the information-encoding layers of the
// paper: the 3-ON-2 codec that stores three bits on two ternary cells
// (Table 2), the Gray code used for four-level cells, the 2-bits-per-cell
// mapping used by transient-error correction (Section 6.3), the smart
// (inversion/rotation) encoding that depopulates vulnerable states
// (Section 5.1), and an enumerative generalization to arbitrary
// non-power-of-two level counts (Section 8).
//
// State conventions. Three-level cells use state indices 0, 1, 2 for the
// paper's S1, S2, S4 (there is no S3). Four-level cells use 0..3 for
// S1..S4.
package encoding

import (
	"fmt"

	"repro/internal/bitvec"
)

// INV is the reserved ninth pair-state of 3-ON-2: both cells at the
// highest resistance [S4, S4]. Mark-and-spare uses it to flag a pair
// containing a worn-out cell (Section 6.4).
const INV = 8

// PairIndex folds two ternary cell states into the 0..8 pair index used
// throughout: 3·first + second. Index 8 (= [S4,S4]) is INV.
func PairIndex(c1, c2 int) int {
	if c1 < 0 || c1 > 2 || c2 < 0 || c2 > 2 {
		panic(fmt.Sprintf("encoding: bad ternary states (%d,%d)", c1, c2))
	}
	return 3*c1 + c2
}

// EncodePair maps three bits (0..7) onto two ternary cell states per
// Table 2: 000→[S1,S1] … 111→[S4,S2]. [S4,S4] is never produced.
func EncodePair(bits uint) (c1, c2 int) {
	if bits > 7 {
		panic(fmt.Sprintf("encoding: 3-ON-2 value %d out of range", bits))
	}
	return int(bits) / 3, int(bits) % 3
}

// DecodePair inverts EncodePair. inv reports the reserved [S4,S4] state;
// when inv is true, bits is meaningless.
func DecodePair(c1, c2 int) (bits uint, inv bool) {
	idx := PairIndex(c1, c2)
	if idx == INV {
		return 0, true
	}
	return uint(idx), false
}

// ThreeOnTwoCells returns the number of ternary cells holding dataBits
// bits under 3-ON-2 (two cells per three bits, rounded up to whole
// pairs). For the paper's 512-bit block this is 342 cells.
func ThreeOnTwoCells(dataBits int) int {
	pairs := (dataBits + 2) / 3
	return 2 * pairs
}

// EncodeThreeOnTwo encodes a bit vector into ternary cell states, three
// bits per pair, zero-padding the last partial triple.
func EncodeThreeOnTwo(data bitvec.Vector) []int {
	cells := make([]int, ThreeOnTwoCells(data.Len()))
	EncodeThreeOnTwoInto(cells, data)
	return cells
}

// EncodeThreeOnTwoInto is EncodeThreeOnTwo writing into dst, which must
// hold exactly ThreeOnTwoCells(data.Len()) cells.
func EncodeThreeOnTwoInto(dst []int, data bitvec.Vector) {
	if len(dst) != ThreeOnTwoCells(data.Len()) {
		panic(fmt.Sprintf("encoding: %d cells for %d bits of 3-ON-2", len(dst), data.Len()))
	}
	for p := 0; p < len(dst)/2; p++ {
		var bits uint
		for b := 0; b < 3; b++ {
			i := 3*p + b
			if i < data.Len() {
				bits |= uint(data.Get(i)) << b
			}
		}
		dst[2*p], dst[2*p+1] = EncodePair(bits)
	}
}

// DecodeThreeOnTwo decodes ternary cell states into dataBits bits. Pairs
// in the INV state decode as zero bits and are counted in invPairs; the
// wearout-tolerance layer is responsible for eliminating INV pairs before
// this step (Figure 9's symbol decode is the final stage).
func DecodeThreeOnTwo(cells []int, dataBits int) (data bitvec.Vector, invPairs int) {
	if len(cells)%2 != 0 {
		panic("encoding: odd cell count for 3-ON-2")
	}
	data = bitvec.New(dataBits)
	for p := 0; p < len(cells)/2; p++ {
		bits, inv := DecodePair(cells[2*p], cells[2*p+1])
		if inv {
			invPairs++
			continue
		}
		for b := 0; b < 3; b++ {
			i := 3*p + b
			if i < dataBits {
				data.Set(i, uint(bits>>b)&1)
			}
		}
	}
	return data, invPairs
}

// gray4 maps 4LC states S1..S4 to two bits so that adjacent states differ
// in exactly one bit: 00, 01, 11, 10. A drift error (always to the next
// state up) therefore manifests as a single bit error (Section 6.6).
var gray4 = [4]uint{0b00, 0b01, 0b11, 0b10}
var gray4Inv = [4]int{0: 0, 1: 1, 3: 2, 2: 3}

// Gray4Encode returns the 4LC state storing the two bits.
func Gray4Encode(bits uint) int {
	if bits > 3 {
		panic("encoding: Gray4Encode input out of range")
	}
	return gray4Inv[bits]
}

// Gray4Decode returns the two bits stored by a 4LC state.
func Gray4Decode(state int) uint {
	if state < 0 || state > 3 {
		panic("encoding: Gray4Decode state out of range")
	}
	return gray4[state]
}

// EncodeGray4 packs a bit vector two bits per four-level cell.
func EncodeGray4(data bitvec.Vector) []int {
	cells := make([]int, data.Len()/2)
	EncodeGray4Into(cells, data)
	return cells
}

// EncodeGray4Into is EncodeGray4 overwriting cells, which must hold
// exactly one state per two bits.
func EncodeGray4Into(cells []int, data bitvec.Vector) {
	if data.Len()%2 != 0 {
		panic("encoding: Gray block must hold an even number of bits")
	}
	if len(cells) != data.Len()/2 {
		panic(fmt.Sprintf("encoding: EncodeGray4Into needs %d cells, got %d", data.Len()/2, len(cells)))
	}
	for i := range cells {
		bits := uint(data.Get(2*i)) | uint(data.Get(2*i+1))<<1
		cells[i] = Gray4Encode(bits)
	}
}

// DecodeGray4 unpacks four-level cells into bits.
func DecodeGray4(cells []int) bitvec.Vector {
	data := bitvec.New(2 * len(cells))
	DecodeGray4Into(data, cells)
	return data
}

// DecodeGray4Into is DecodeGray4 overwriting data, which must hold
// exactly two bits per cell.
func DecodeGray4Into(data bitvec.Vector, cells []int) {
	if data.Len() != 2*len(cells) {
		panic(fmt.Sprintf("encoding: DecodeGray4Into needs %d bits, got %d", 2*len(cells), data.Len()))
	}
	for i, s := range cells {
		bits := Gray4Decode(s)
		data.Set(2*i, bits&1)
		data.Set(2*i+1, (bits>>1)&1)
	}
}

// TECBits3 maps a ternary cell state to the 2-bit pattern used when
// constructing the transient-error-correction codeword (Section 6.3):
// S1=00, S2=01, S4=11. As in Gray coding, a drift error (S1→S2 or S2→S4)
// flips exactly one bit. This mapping does not change the stored cell
// states — only how the ECC logic interprets them.
func TECBits3(state int) uint {
	switch state {
	case 0:
		return 0b00
	case 1:
		return 0b01
	case 2:
		return 0b11
	}
	panic(fmt.Sprintf("encoding: bad ternary state %d", state))
}

// TECState3 inverts TECBits3 after error correction. The pattern 10 is
// not produced by any state; if correction yields it (possible only under
// miscorrection beyond the code's strength), ok is false.
func TECState3(bits uint) (state int, ok bool) {
	switch bits & 3 {
	case 0b00:
		return 0, true
	case 0b01:
		return 1, true
	case 0b11:
		return 2, true
	}
	return 0, false
}

// TECMessage3 builds the TEC codeword message from ternary cells: two
// bits per cell, LSB-first. For the paper's block (342 data + 12 spare
// cells) this is the 708-bit BCH-1 message.
func TECMessage3(cells []int) bitvec.Vector {
	msg := bitvec.New(2 * len(cells))
	TECMessage3Into(msg, cells)
	return msg
}

// TECMessage3Into is TECMessage3 overwriting msg, which must hold exactly
// two bits per cell.
func TECMessage3Into(msg bitvec.Vector, cells []int) {
	if msg.Len() != 2*len(cells) {
		panic(fmt.Sprintf("encoding: %d-bit TEC message for %d cells", msg.Len(), len(cells)))
	}
	for i, s := range cells {
		b := TECBits3(s)
		msg.Set(2*i, b&1)
		msg.Set(2*i+1, (b>>1)&1)
	}
}

// CellsFromTECMessage3 converts a (corrected) TEC message back to ternary
// states. badPatterns counts 10-patterns, which indicate miscorrection;
// those cells are pinned to S4 so downstream INV detection stays sound.
func CellsFromTECMessage3(msg bitvec.Vector) (cells []int, badPatterns int) {
	cells = make([]int, msg.Len()/2)
	return cells, CellsFromTECMessage3Into(cells, msg)
}

// CellsFromTECMessage3Into is CellsFromTECMessage3 writing into cells,
// which must hold exactly half as many entries as msg has bits.
func CellsFromTECMessage3Into(cells []int, msg bitvec.Vector) (badPatterns int) {
	if msg.Len() != 2*len(cells) {
		panic(fmt.Sprintf("encoding: %d cells for a %d-bit TEC message", len(cells), msg.Len()))
	}
	for i := range cells {
		bits := uint(msg.Get(2*i)) | uint(msg.Get(2*i+1))<<1
		s, ok := TECState3(bits)
		if !ok {
			badPatterns++
			s = 2
		}
		cells[i] = s
	}
	return badPatterns
}
