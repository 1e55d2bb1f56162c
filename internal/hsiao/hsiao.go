// Package hsiao implements Hsiao's odd-weight-column single-error-
// correcting, double-error-detecting (SEC-DED) code — the alternative the
// paper names for the 3LC transient-error code ("BCH-1 (or equivalently,
// a Hamming or a Hsiao code)", Section 6.3).
//
// The practical difference from a shortened BCH-1 matters for integrity:
// a bounded-distance BCH-1 decoder fed a double error usually
// *miscorrects* (any nonzero syndrome matching a valid locator flips some
// third bit), while Hsiao's construction — every column of H has odd
// weight — makes every double error produce an even-weight syndrome,
// which is detected and never "corrected". The price is one extra check
// bit on the paper's 708-bit message (11 vs 10).
package hsiao

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
)

// Code is a SEC-DED code over a fixed data length.
type Code struct {
	DataBits  int
	CheckBits int
	// cols[i] is the H-matrix column (syndrome pattern) of data bit i;
	// check bit j's column is the unit vector 1<<j.
	cols []uint32
	// colIndex maps a syndrome back to the data bit it identifies.
	colIndex map[uint32]int
}

// New constructs the code for the given data length, choosing the
// minimal check-bit count whose odd-weight (≥3) column pool covers the
// data bits, and assigning lightest columns first (Hsiao's minimum-
// total-weight heuristic, which minimizes encoder/decoder XOR fan-in).
func New(dataBits int) (*Code, error) {
	if dataBits < 1 {
		return nil, fmt.Errorf("hsiao: need at least one data bit")
	}
	for r := 4; r <= 24; r++ {
		pool := oddColumns(r)
		if len(pool) < dataBits {
			continue
		}
		c := &Code{
			DataBits:  dataBits,
			CheckBits: r,
			cols:      pool[:dataBits],
			colIndex:  make(map[uint32]int, dataBits),
		}
		for i, col := range c.cols {
			c.colIndex[col] = i
		}
		return c, nil
	}
	return nil, fmt.Errorf("hsiao: data length %d too large", dataBits)
}

// Must is New panicking on error.
func Must(dataBits int) *Code {
	c, err := New(dataBits)
	if err != nil {
		panic(err)
	}
	return c
}

// oddColumns enumerates r-bit patterns of odd weight >= 3 in increasing
// weight (then numeric) order.
func oddColumns(r int) []uint32 {
	var out []uint32
	for w := 3; w <= r; w += 2 {
		for v := uint32(1); v < 1<<uint(r); v++ {
			if bits.OnesCount32(v) == w {
				out = append(out, v)
			}
		}
	}
	return out
}

// Encode returns the check bits of data.
func (c *Code) Encode(data bitvec.Vector) bitvec.Vector {
	parity := bitvec.New(c.CheckBits)
	c.EncodeInto(data, parity)
	return parity
}

// EncodeInto is Encode overwriting parity, which must hold CheckBits
// bits.
func (c *Code) EncodeInto(data, parity bitvec.Vector) {
	if data.Len() != c.DataBits {
		panic(fmt.Sprintf("hsiao: data length %d, want %d", data.Len(), c.DataBits))
	}
	if parity.Len() != c.CheckBits {
		panic(fmt.Sprintf("hsiao: parity length %d, want %d", parity.Len(), c.CheckBits))
	}
	var syn uint32
	for i := data.NextSet(0); i >= 0; i = data.NextSet(i + 1) {
		syn ^= c.cols[i]
	}
	for j := 0; j < c.CheckBits; j++ {
		parity.Set(j, uint(syn>>uint(j))&1)
	}
}

// Result reports a decode outcome.
type Result struct {
	// Corrected is 1 when a single error was fixed in place.
	Corrected int
	// DoubleError is true when an (uncorrectable) even-weight syndrome
	// was seen — a guaranteed detection for any two-bit error.
	DoubleError bool
	// OK is false when the word is known corrupt (double error or an
	// odd syndrome matching no column, i.e. >= 3 errors).
	OK bool
}

// Decode checks and corrects data+parity in place.
func (c *Code) Decode(data, parity bitvec.Vector) Result {
	if data.Len() != c.DataBits || parity.Len() != c.CheckBits {
		panic("hsiao: decode length mismatch")
	}
	var syn uint32
	for i := data.NextSet(0); i >= 0; i = data.NextSet(i + 1) {
		syn ^= c.cols[i]
	}
	for j := 0; j < c.CheckBits; j++ {
		if parity.Get(j) != 0 {
			syn ^= 1 << uint(j)
		}
	}
	switch {
	case syn == 0:
		return Result{OK: true}
	case bits.OnesCount32(syn)%2 == 0:
		return Result{DoubleError: true}
	case bits.OnesCount32(syn) == 1:
		// A check-bit error.
		parity.Flip(bits.TrailingZeros32(syn))
		return Result{Corrected: 1, OK: true}
	default:
		if i, ok := c.colIndex[syn]; ok {
			data.Flip(i)
			return Result{Corrected: 1, OK: true}
		}
		// Odd syndrome matching no column: at least three errors.
		return Result{}
	}
}
