package bch

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bitvec"
)

// fuzzCode is one parameter set FuzzBCH draws from: a bare code, or an
// extended one (ext non-nil, code its underlying Code).
type fuzzCode struct {
	name string
	code *Code
	ext  *Extended
}

// fuzzCodes covers each shape of the table-driven remainder update: the
// paper's codes, a message that is not a whole number of bytes, a
// parity of exactly one word, of two and three words, one whose top
// byte straddles a word boundary, the smallest table (8 check bits),
// the serial fallback (< 8), and the serving stack's extended codes.
func fuzzCodes() []fuzzCode {
	ext10, ext1 := MustExtended(10, 10, 512), MustExtended(10, 1, 512)
	return []fuzzCode{
		{name: "BCH-10/512", code: Must(10, 10, 512)},
		{name: "BCH-1/708", code: Must(10, 1, 708)},
		{name: "BCH-8/1000 (96 check bits)", code: Must(12, 8, 1000)},
		{name: "BCH-7/500 (70 check bits, top byte straddles words)", code: Must(10, 7, 500)},
		{name: "BCH-8/100 (64 check bits)", code: Must(8, 8, 100)},
		{name: "BCH-13/300 (130 check bits)", code: Must(10, 13, 300)},
		{name: "BCH-1/100 (8 check bits)", code: Must(8, 1, 100)},
		{name: "BCH-1/100 (7 check bits, serial)", code: Must(7, 1, 100)},
		{name: "BCH-10+p/512", code: ext10.Code(), ext: ext10},
		{name: "BCH-1+p/512", code: ext1.Code(), ext: ext1},
	}
}

// decodeDirect is the decoder's oracle: the syndromes are evaluated over
// every set bit of the received word, message and parity alike, instead
// of over its remainder.
func decodeDirect(c *Code, msg, parity bitvec.Vector) DecodeResult {
	if msg.Len() != c.MsgBits || parity.Len() != c.parity {
		panic("bch: decodeDirect length mismatch")
	}
	synd := make([]uint32, 2*c.T+1)
	eval := func(deg int) {
		for j := 1; j <= 2*c.T; j++ {
			synd[j] ^= c.field.Exp(j * deg)
		}
	}
	for i := parity.NextSet(0); i >= 0; i = parity.NextSet(i + 1) {
		eval(i)
	}
	for i := msg.NextSet(0); i >= 0; i = msg.NextSet(i + 1) {
		eval(c.parity + i)
	}
	for _, s := range synd[1:] {
		if s != 0 {
			return c.correct(synd, msg, parity)
		}
	}
	return DecodeResult{Corrected: 0, OK: true}
}

// fuzzSeed is one checked-in FuzzBCH input: the parameter set, message
// bytes (repeated to fill the message), and big-endian uint16 flip
// positions (taken modulo the codeword length).
type fuzzSeed struct {
	sel   uint8
	data  []byte
	flips []byte
}

func bchFuzzSeeds() []fuzzSeed {
	// flipsAt packs bit positions as FuzzBCH reads them.
	flipsAt := func(pos ...int) []byte {
		out := make([]byte, 0, 2*len(pos))
		for _, p := range pos {
			out = append(out, byte(p>>8), byte(p))
		}
		return out
	}
	seq := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = 37*i + 5
		}
		return out
	}
	return []fuzzSeed{
		{0, []byte{0x5a, 0xc3, 0x01}, nil},                         // BCH-10 clean
		{0, []byte{0xff}, flipsAt(seq(10)...)},                     // BCH-10 at t
		{0, []byte{0x12, 0x34}, flipsAt(seq(12)...)},               // BCH-10 beyond t
		{0, []byte{0x80}, flipsAt(511, 512, 611)},                  // last message bit, first and last parity
		{1, []byte{0xa5, 0x0f}, flipsAt(707)},                      // BCH-1 top message bit
		{1, []byte{0x01}, flipsAt(3, 700)},                         // BCH-1 double error
		{2, []byte{0x9e, 0x37, 0x79, 0xb9}, flipsAt(seq(8)...)},    // 96 check bits at t
		{3, []byte{0xde, 0xad, 0xbe, 0xef}, flipsAt(seq(7)...)},    // straddling top byte at t
		{3, []byte{0x00}, flipsAt(499, 500, 569)},                  // zero message, parity errors
		{4, []byte{0xff, 0x00}, flipsAt(seq(9)...)},                // one-word parity beyond t
		{5, []byte{0x3c}, flipsAt(seq(13)...)},                     // three-word parity at t
		{6, []byte{0xc0, 0x01}, flipsAt(107)},                      // 8 check bits, last parity bit
		{7, []byte{0x77}, flipsAt(50)},                             // serial fallback
		{7, []byte{0x77}, flipsAt(50, 104)},                        // serial fallback, double error
		{8, []byte{0x42, 0x24}, flipsAt(seq(10)...)},               // extended at t
		{8, []byte{0x42, 0x24}, flipsAt(seq(11)...)},               // extended at t+1: detected
		{8, []byte{0x11}, flipsAt(612)},                            // extended overall parity bit
		{9, []byte{0xf0, 0x0f}, flipsAt(1, 520)},                   // extended BCH-1 at t+1
		{9, []byte{0xf0, 0x0f}, flipsAt(1, 2, 3)},                  // extended BCH-1 at t+2
		{2, []byte{0x01, 0x02, 0x03}, flipsAt(1095, 0, 999, 1000)}, // 96 check bits, edges
		{0, []byte{0x33}, flipsAt(611)},                            // remainder nonzero only above word 0
		{5, []byte{0x33}, flipsAt(429)},                            // remainder nonzero only in word 2
	}
}

// FuzzBCH checks the table-driven encoder and the remainder-first
// decoder against their oracles: Encode must equal encodeSerial, and
// Decode must return the same result, message and parity as
// decodeDirect, for up to t+2 flipped bits. Up to t flips must be
// corrected exactly.
func FuzzBCH(f *testing.F) {
	for _, s := range bchFuzzSeeds() {
		f.Add(s.sel, s.data, s.flips)
	}
	codes := fuzzCodes()
	f.Fuzz(func(t *testing.T, sel uint8, data, flips []byte) {
		fc := codes[int(sel)%len(codes)]
		c := fc.code
		raw := make([]byte, (c.MsgBits+7)/8)
		for i := range raw {
			if len(data) > 0 {
				raw[i] = data[i%len(data)]
			}
		}
		msg := bitvec.FromBytes(raw, c.MsgBits)

		want := c.encodeSerial(msg)
		var parity bitvec.Vector
		if fc.ext != nil {
			parity = fc.ext.Encode(msg)
			if !parity.Slice(0, c.parity).Equal(want) {
				t.Fatalf("%s: Extended.Encode remainder differs from encodeSerial", fc.name)
			}
		} else {
			parity = c.Encode(msg)
			if !parity.Equal(want) {
				t.Fatalf("%s: Encode = %v, encodeSerial = %v", fc.name, parity, want)
			}
		}

		n := msg.Len() + parity.Len()
		flipped := map[int]bool{}
		for i := 0; i+1 < len(flips) && len(flipped) < c.T+2; i += 2 {
			p := (int(flips[i])<<8 | int(flips[i+1])) % n
			if flipped[p] {
				continue
			}
			flipped[p] = true
			if p < msg.Len() {
				msg.Flip(p)
			} else {
				parity.Flip(p - msg.Len())
			}
		}

		gotMsg, gotPar := msg.Clone(), parity.Clone()
		wantMsg, wantPar := msg.Clone(), parity.Clone()
		var got, exp DecodeResult
		if fc.ext != nil {
			got = fc.ext.Decode(gotMsg, gotPar)
			exp = fc.ext.decode(wantMsg, wantPar, func(m, p bitvec.Vector) DecodeResult {
				return decodeDirect(c, m, p)
			})
		} else {
			got = c.Decode(gotMsg, gotPar)
			exp = decodeDirect(c, wantMsg, wantPar)
		}
		if got != exp || !gotMsg.Equal(wantMsg) || !gotPar.Equal(wantPar) {
			t.Fatalf("%s, %d flips: Decode = %+v, oracle = %+v (msg equal %v, parity equal %v)",
				fc.name, len(flipped), got, exp, gotMsg.Equal(wantMsg), gotPar.Equal(wantPar))
		}
		if len(flipped) <= c.T {
			origMsg := bitvec.FromBytes(raw, c.MsgBits)
			if !got.OK || got.Corrected != len(flipped) || !gotMsg.Equal(origMsg) {
				t.Fatalf("%s: %d flips not corrected: %+v", fc.name, len(flipped), got)
			}
		}
	})
}

// TestRegenerateBCHFuzzCorpus rewrites the checked-in seed corpus under
// testdata/fuzz/FuzzBCH. Run after changing the seed set:
//
//	BCH_WRITE_FUZZ_CORPUS=1 go test -run TestRegenerateBCHFuzzCorpus ./internal/bch
func TestRegenerateBCHFuzzCorpus(t *testing.T) {
	if os.Getenv("BCH_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set BCH_WRITE_FUZZ_CORPUS=1 to rewrite testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzBCH")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range bchFuzzSeeds() {
		body := fmt.Sprintf("go test fuzz v1\nbyte(%q)\n[]byte(%q)\n[]byte(%q)\n", rune(s.sel), s.data, s.flips)
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
