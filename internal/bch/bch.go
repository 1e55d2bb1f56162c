// Package bch implements binary, systematic, shortened BCH codes — the
// transient-error-correcting codes (TEC) of the paper: BCH-1 for the
// proposed three-level-cell design (Section 6.3: a 708-bit message with
// 10 check bits over GF(2^10)) and BCH-10 for the optimized four-level
// baseline (Section 6.6: a 512-bit message with 100 check bits).
//
// Encoding divides msg(x)·x^parity by the generator polynomial a byte at
// a time, the table-driven technique of CRCs: a 256-entry table of
// b(x)·x^parity mod g(x), packed in 64-bit words, replaces eight steps of
// the bit-serial LFSR (kept for codes with fewer than 8 check bits).
// Decoding first recomputes the remainder of the received word; a zero
// remainder means every syndrome is zero and the word is clean. Otherwise
// the syndromes are evaluated on that remainder (g(α^j) = 0 for j ≤ 2t),
// the Berlekamp–Massey algorithm finds the error-locator polynomial, and
// Chien search locates the errors. Up to t bit errors per codeword are
// corrected; more are reported (detection is probabilistic beyond the
// designed distance, as for any BCH code).
package bch

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/gf2"
)

// Code is a t-error-correcting shortened BCH code over GF(2^m) with a
// fixed message length in bits. Safe for concurrent use.
type Code struct {
	M       int // field degree; codeword length at most 2^m - 1
	T       int // designed correction capability in bits
	MsgBits int // message length (shortened)

	field  *gf2.Field
	gen    gf2.Poly
	parity int // generator degree = number of check bits

	// tab[b*words : (b+1)*words] holds b(x)·x^parity mod g(x) for each
	// byte b, packed like bitvec words; nil when parity < 8.
	tab   []uint64
	words int // ⌈parity/64⌉
}

// New constructs BCH-t over GF(2^m) shortened to msgBits message bits.
func New(m, t, msgBits int) (*Code, error) {
	if t < 1 {
		return nil, fmt.Errorf("bch: t must be >= 1, got %d", t)
	}
	if msgBits < 1 {
		return nil, fmt.Errorf("bch: message length must be >= 1, got %d", msgBits)
	}
	field, err := gf2.NewField(m)
	if err != nil {
		return nil, err
	}
	// Generator = lcm of minimal polynomials of α^1..α^2t, i.e. the
	// product over distinct cyclotomic cosets.
	gen := gf2.PolyFromCoeffs(0) // 1
	seen := map[int]bool{}
	for i := 1; i <= 2*t; i++ {
		leader := cosetLeader(i, field.N)
		if seen[leader] {
			continue
		}
		seen[leader] = true
		gen = gen.Mul(field.MinPoly(i))
	}
	c := &Code{M: m, T: t, MsgBits: msgBits, field: field, gen: gen, parity: gen.Degree()}
	if msgBits+c.parity > field.N {
		return nil, fmt.Errorf("bch: message %d + parity %d exceeds code length %d",
			msgBits, c.parity, field.N)
	}
	c.words = (c.parity + 63) / 64
	if c.parity >= 8 {
		c.buildTable()
	}
	return c, nil
}

// buildTable fills tab from the serial encodings of the eight one-bit
// bytes, extending to all 256 by linearity.
func (c *Code) buildTable() {
	w := c.words
	c.tab = make([]uint64, 256*w)
	for k := 0; k < 8; k++ {
		unit := bitvec.New(8)
		unit.Set(k, 1)
		copy(c.tab[(1<<k)*w:], c.encodeSerial(unit).Words())
	}
	for b := 3; b < 256; b++ {
		low := b & -b
		if low == b {
			continue
		}
		dst, x, y := c.tab[b*w:(b+1)*w], c.tab[low*w:], c.tab[(b^low)*w:]
		for i := range dst {
			dst[i] = x[i] ^ y[i]
		}
	}
}

// Must is New panicking on error, for statically valid parameters.
func Must(m, t, msgBits int) *Code {
	c, err := New(m, t, msgBits)
	if err != nil {
		panic(err)
	}
	return c
}

// cosetLeader returns the smallest element of the cyclotomic coset of i
// modulo n.
func cosetLeader(i, n int) int {
	min := i % n
	for j := (2 * i) % n; j != i%n; j = (2 * j) % n {
		if j < min {
			min = j
		}
	}
	return min
}

// ParityBits returns the number of check bits appended by Encode.
func (c *Code) ParityBits() int { return c.parity }

// CodewordBits returns the stored codeword length: message plus parity.
func (c *Code) CodewordBits() int { return c.MsgBits + c.parity }

// Encode computes the parity bits of msg. msg.Len() must equal MsgBits.
//
// Layout: the codeword polynomial is msg(x)·x^parity + rem(x), with
// message bit i the coefficient of x^(parity+i) and parity bit j the
// coefficient of x^j — the standard systematic form.
func (c *Code) Encode(msg bitvec.Vector) bitvec.Vector {
	out := bitvec.New(c.parity)
	c.EncodeInto(msg, out)
	return out
}

// EncodeInto is Encode overwriting parity, which must hold ParityBits
// bits. It allocates nothing for parities up to 256 bits.
func (c *Code) EncodeInto(msg, parity bitvec.Vector) {
	if msg.Len() != c.MsgBits {
		panic(fmt.Sprintf("bch: message length %d, want %d", msg.Len(), c.MsgBits))
	}
	if parity.Len() != c.parity {
		panic(fmt.Sprintf("bch: parity length %d, want %d", parity.Len(), c.parity))
	}
	var buf [stackWords]uint64
	for i, w := range c.remainder(msg, &buf) {
		parity.SetUint(64*i, min(64, c.parity-64*i), w)
	}
}

// stackWords sizes the caller's remainder buffer: parities up to 256
// bits (every code this repository builds) need no heap scratch.
const stackWords = 4

// remainder returns msg(x)·x^parity mod g(x) in c.words words, stored in
// buf (zero on entry) when it is long enough. The message is taken a
// byte at a time from its top, its high end zero-padded to a whole byte
// (leading zeros leave the remainder unchanged): with
// rem = hi(x)·x^(parity-8) + lo(x) and incoming byte d, the next
// remainder is lo(x)·x^8 + tab[hi⊕d].
func (c *Code) remainder(msg bitvec.Vector, buf *[stackWords]uint64) []uint64 {
	var rem []uint64
	if c.words <= stackWords {
		rem = buf[:c.words]
	} else {
		rem = make([]uint64, c.words)
	}
	if c.tab == nil {
		copy(rem, c.encodeSerial(msg).Words())
		return rem
	}
	mw := msg.Words()
	w := c.words
	last := w - 1
	lastMask := ^uint64(0)
	if r := c.parity & 63; r != 0 {
		lastMask = 1<<r - 1
	}
	topWord, topShift := (c.parity-8)>>6, uint((c.parity-8)&63)
	for k := (c.MsgBits+7)/8 - 1; k >= 0; k-- {
		hi := rem[topWord] >> topShift
		if topShift > 56 {
			hi |= rem[topWord+1] << (64 - topShift)
		}
		idx := int(byte(hi) ^ byte(mw[k>>3]>>(8*(k&7))))
		for i := last; i > 0; i-- {
			rem[i] = rem[i]<<8 | rem[i-1]>>56
		}
		rem[0] <<= 8
		rem[last] &= lastMask
		t := c.tab[idx*w : idx*w+w]
		for i := range rem {
			rem[i] ^= t[i]
		}
	}
	return rem
}

// encodeSerial is the bit-serial LFSR division of msg(x)·x^parity by
// g(x) for a message of any length. It serves codes with fewer than 8
// check bits, builds the byte table, and is the tests' oracle for
// Encode.
func (c *Code) encodeSerial(msg bitvec.Vector) bitvec.Vector {
	// Process message bits from the highest coefficient down.
	rem := bitvec.New(c.parity)
	for i := msg.Len() - 1; i >= 0; i-- {
		// feedback = incoming bit XOR current highest remainder bit
		fb := msg.Get(i) ^ rem.Get(c.parity-1)
		// shift remainder left by one
		for j := c.parity - 1; j > 0; j-- {
			rem.Set(j, rem.Get(j-1))
		}
		rem.Set(0, 0)
		if fb != 0 {
			// XOR the generator's lower coefficients (the x^parity term
			// is the implicit feedback).
			for j := 0; j < c.parity; j++ {
				if c.gen.Coeff(j) {
					rem.Flip(j)
				}
			}
		}
	}
	return rem
}

// DecodeResult reports what Decode did.
type DecodeResult struct {
	// Corrected is the number of bit errors corrected in place.
	Corrected int
	// OK is false when the syndrome was consistent with more than t
	// errors and nothing could be corrected reliably.
	OK bool
}

// Decode corrects up to T bit errors across msg and parity in place and
// reports the number corrected. When more than T errors are present the
// result has OK=false and the data is left unmodified (detection beyond
// the designed distance is best-effort, as with any bounded-distance
// decoder).
func (c *Code) Decode(msg, parity bitvec.Vector) DecodeResult {
	if msg.Len() != c.MsgBits || parity.Len() != c.parity {
		panic("bch: Decode length mismatch")
	}
	// r(x) mod g(x) = Encode(msg) ⊕ parity: the received word's
	// remainder, with parity bit j ↔ x^j.
	var buf [stackWords]uint64
	rem := c.remainder(msg, &buf)
	clean := true
	for i, w := range parity.Words() {
		rem[i] ^= w
		clean = clean && rem[i] == 0
	}
	if clean {
		return DecodeResult{Corrected: 0, OK: true}
	}

	// Syndromes S_j = r(α^j) = rem(α^j), j = 1..2t, since g(α^j) = 0.
	f := c.field
	synd := make([]uint32, 2*c.T+1)
	for i, w := range rem {
		for ; w != 0; w &= w - 1 {
			deg := 64*i + bits.TrailingZeros64(w)
			for j := 1; j <= 2*c.T; j++ {
				synd[j] ^= f.Exp(j * deg)
			}
		}
	}
	return c.correct(synd, msg, parity)
}

// correct finishes a decode from nonzero syndromes synd[1..2t]: it finds
// the error locator, locates the errors, and flips them in place.
func (c *Code) correct(synd []uint32, msg, parity bitvec.Vector) DecodeResult {
	f := c.field

	// Berlekamp–Massey: find the minimal LFSR (error locator σ) that
	// generates the syndrome sequence.
	sigma := c.berlekampMassey(synd)
	degSigma := len(sigma) - 1
	for degSigma > 0 && sigma[degSigma] == 0 {
		degSigma--
	}
	if degSigma == 0 || degSigma > c.T {
		return DecodeResult{Corrected: 0, OK: false}
	}

	// Chien search over the stored (shortened) positions: position p is
	// an error location iff σ(α^{-p}) = 0.
	n := c.CodewordBits()
	locations := make([]int, 0, degSigma)
	for p := 0; p < n; p++ {
		// Evaluate σ at α^{-p}.
		var v uint32
		for d := 0; d <= degSigma; d++ {
			if sigma[d] == 0 {
				continue
			}
			v ^= f.Mul(sigma[d], f.Exp(-p*d))
		}
		if v == 0 {
			locations = append(locations, p)
		}
	}
	if len(locations) != degSigma {
		// Locator does not split over the stored positions: either >t
		// errors, or errors in the virtual (shortened-away) region.
		return DecodeResult{Corrected: 0, OK: false}
	}
	for _, p := range locations {
		if p < c.parity {
			parity.Flip(p)
		} else {
			msg.Flip(p - c.parity)
		}
	}
	return DecodeResult{Corrected: len(locations), OK: true}
}

// berlekampMassey returns the error-locator polynomial σ (lowest degree
// first, σ[0] = 1) for the syndrome sequence synd[1..2t].
func (c *Code) berlekampMassey(synd []uint32) []uint32 {
	f := c.field
	twoT := 2 * c.T
	sigma := make([]uint32, twoT+1)
	prev := make([]uint32, twoT+1)
	sigma[0], prev[0] = 1, 1
	var l int      // current LFSR length
	mShift := 1    // steps since last length change
	b := uint32(1) // discrepancy at last length change

	for r := 1; r <= twoT; r++ {
		// Discrepancy d = S_r + Σ σ_i · S_{r-i}.
		d := synd[r]
		for i := 1; i <= l; i++ {
			if sigma[i] != 0 && r-i >= 1 {
				d ^= f.Mul(sigma[i], synd[r-i])
			}
		}
		if d == 0 {
			mShift++
			continue
		}
		// σ' = σ - (d/b)·x^mShift·prev
		next := make([]uint32, twoT+1)
		copy(next, sigma)
		coef := f.Div(d, b)
		for i := 0; i+mShift <= twoT; i++ {
			if prev[i] != 0 {
				next[i+mShift] ^= f.Mul(coef, prev[i])
			}
		}
		if 2*l <= r-1 {
			prev = sigma
			l = r - l
			b = d
			mShift = 1
		} else {
			mShift++
		}
		sigma = next
	}
	return sigma
}
