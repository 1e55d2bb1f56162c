package bch

import "repro/internal/bitvec"

// Extended augments a Code with one overall even-parity bit over the
// whole codeword (message + BCH check bits), raising the guaranteed
// minimum distance from 2t+1 to 2t+2. The practical consequence — and
// the property the serving stack's integrity layer depends on — is that
// any error pattern of exactly t+1 bits is always DETECTED (Decode
// returns OK=false, data untouched) and never silently miscorrected,
// which a bounded-distance decoder over the bare code cannot promise:
// a t+1-bit pattern can land within distance t of a neighbouring
// codeword and be "corrected" into it.
//
// Layout: Encode returns ParityBits() = Code.ParityBits()+1 check bits;
// the first Code.ParityBits() are the systematic BCH remainder, the
// last is the even-parity bit over message and BCH check bits.
type Extended struct {
	code *Code
}

// NewExtended constructs the extended BCH-t code over GF(2^m) shortened
// to msgBits message bits.
func NewExtended(m, t, msgBits int) (*Extended, error) {
	c, err := New(m, t, msgBits)
	if err != nil {
		return nil, err
	}
	return &Extended{code: c}, nil
}

// MustExtended is NewExtended panicking on error, for statically valid
// parameters.
func MustExtended(m, t, msgBits int) *Extended {
	e, err := NewExtended(m, t, msgBits)
	if err != nil {
		panic(err)
	}
	return e
}

// Code returns the underlying bounded-distance code.
func (e *Extended) Code() *Code { return e.code }

// T returns the designed correction capability in bits.
func (e *Extended) T() int { return e.code.T }

// MsgBits returns the message length in bits.
func (e *Extended) MsgBits() int { return e.code.MsgBits }

// ParityBits returns the number of check bits appended by Encode: the
// BCH remainder plus the overall parity bit.
func (e *Extended) ParityBits() int { return e.code.ParityBits() + 1 }

// CodewordBits returns the stored extended codeword length.
func (e *Extended) CodewordBits() int { return e.code.MsgBits + e.ParityBits() }

// Encode computes the extended check bits of msg: the systematic BCH
// remainder followed by one even-parity bit over message and remainder.
func (e *Extended) Encode(msg bitvec.Vector) bitvec.Vector {
	rem := e.code.Encode(msg)
	out := bitvec.New(e.ParityBits())
	out.CopyFrom(rem, 0)
	out.Set(e.code.ParityBits(), uint(msg.OnesCount()+rem.OnesCount())&1)
	return out
}

// Decode corrects up to T bit errors across msg and the extended parity
// in place. Guarantees, counting errors over the whole extended
// codeword (message, BCH check bits, and the overall parity bit):
//
//   - at most T errors: corrected, OK=true;
//   - exactly T+1 errors: detected — OK=false and the data left
//     unmodified, never a silent miscorrection;
//   - beyond T+1: detection is best-effort, as for any code.
//
// The overall parity bit arbitrates the ambiguous boundary: a decode
// claiming exactly T corrections that leaves the overall parity
// inconsistent can only arise from ≥ T+1 real errors, so it is
// rejected and the corrections undone.
func (e *Extended) Decode(msg, parity bitvec.Vector) DecodeResult {
	return e.decode(msg, parity, e.code.Decode)
}

// decode is Decode with the bounded-distance decoder of the underlying
// code supplied, so tests can run the extension over an oracle decoder.
func (e *Extended) decode(msg, parity bitvec.Vector, decodeBCH func(msg, parity bitvec.Vector) DecodeResult) DecodeResult {
	pb := e.code.ParityBits()
	if msg.Len() != e.code.MsgBits || parity.Len() != pb+1 {
		panic("bch: Extended.Decode length mismatch")
	}
	bchPar := parity.Slice(0, pb)
	extBit := parity.Get(pb)

	msgOrig := msg.Clone()
	res := decodeBCH(msg, bchPar)
	if !res.OK {
		return DecodeResult{Corrected: 0, OK: false}
	}
	even := uint(msg.OnesCount()+bchPar.OnesCount())&1 == extBit
	switch {
	case even:
		// Corrections (if any) are parity-consistent: commit them.
		parity.CopyFrom(bchPar, 0)
		return res
	case res.Corrected < e.code.T:
		// Fewer than T corrections plus one overall-parity error is
		// still within the T-error budget: the extra bit itself is
		// wrong. Commit and fix it.
		parity.CopyFrom(bchPar, 0)
		parity.Flip(pb)
		return DecodeResult{Corrected: res.Corrected + 1, OK: true}
	default:
		// Exactly T corrections with inconsistent overall parity: the
		// real error count is at least T+1 (a T+1-bit pattern that
		// fools the bounded-distance decoder always lands here, because
		// error plus miscorrection form a codeword of odd weight
		// ≥ 2T+1). Undo and report detection.
		msg.CopyFrom(msgOrig, 0)
		return DecodeResult{Corrected: 0, OK: false}
	}
}
