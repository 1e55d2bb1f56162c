package encoding

import (
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/rng"
)

func TestTable2Exactly(t *testing.T) {
	// Table 2 of the paper, states written as S1=0, S2=1, S4=2.
	table := []struct {
		c1, c2 int
		bits   uint
	}{
		{0, 0, 0b000}, {0, 1, 0b001}, {0, 2, 0b010},
		{1, 0, 0b011}, {1, 1, 0b100}, {1, 2, 0b101},
		{2, 0, 0b110}, {2, 1, 0b111},
	}
	for _, row := range table {
		c1, c2 := EncodePair(row.bits)
		if c1 != row.c1 || c2 != row.c2 {
			t.Errorf("EncodePair(%03b) = (%d,%d), want (%d,%d)", row.bits, c1, c2, row.c1, row.c2)
		}
		bits, inv := DecodePair(row.c1, row.c2)
		if inv || bits != row.bits {
			t.Errorf("DecodePair(%d,%d) = %03b inv=%v", row.c1, row.c2, bits, inv)
		}
	}
	// The ninth state [S4,S4] is INV.
	if _, inv := DecodePair(2, 2); !inv {
		t.Error("[S4,S4] not reported as INV")
	}
	if PairIndex(2, 2) != INV {
		t.Error("PairIndex(2,2) != INV")
	}
}

func TestEncodePairNeverProducesINV(t *testing.T) {
	for bits := uint(0); bits < 8; bits++ {
		c1, c2 := EncodePair(bits)
		if c1 == 2 && c2 == 2 {
			t.Fatalf("EncodePair(%03b) produced INV", bits)
		}
	}
}

func TestPairPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"encode": func() { EncodePair(8) },
		"index":  func() { PairIndex(3, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestThreeOnTwoCellCount(t *testing.T) {
	// Section 6.2: "A 64B data block is stored in 342 cells."
	if got := ThreeOnTwoCells(512); got != 342 {
		t.Fatalf("cells for 512 bits = %d, want 342", got)
	}
	if got := ThreeOnTwoCells(3); got != 2 {
		t.Fatalf("cells for 3 bits = %d", got)
	}
}

func randBits(r *rng.Rand, n int) bitvec.Vector {
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		v.Set(i, uint(r.Uint64())&1)
	}
	return v
}

func TestThreeOnTwoRoundTrip(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{1, 3, 5, 512} {
		for trial := 0; trial < 10; trial++ {
			data := randBits(r, n)
			cells := EncodeThreeOnTwo(data)
			if len(cells) != ThreeOnTwoCells(n) {
				t.Fatalf("n=%d: %d cells", n, len(cells))
			}
			got, inv := DecodeThreeOnTwo(cells, n)
			if inv != 0 {
				t.Fatalf("n=%d: spurious INV", n)
			}
			if !got.Equal(data) {
				t.Fatalf("n=%d: round trip failed", n)
			}
		}
	}
}

func TestDecodeThreeOnTwoCountsINV(t *testing.T) {
	data := randBits(rng.New(2), 512)
	cells := EncodeThreeOnTwo(data)
	cells[0], cells[1] = 2, 2
	cells[10], cells[11] = 2, 2
	_, inv := DecodeThreeOnTwo(cells, 512)
	if inv != 2 {
		t.Fatalf("inv = %d, want 2", inv)
	}
}

func TestGray4AdjacencyProperty(t *testing.T) {
	// A drift error moves a cell exactly one state up; Gray coding must
	// turn that into exactly one bit flip (Section 6.6).
	for s := 0; s < 3; s++ {
		a, b := Gray4Decode(s), Gray4Decode(s+1)
		diff := a ^ b
		if diff == 0 || diff&(diff-1) != 0 {
			t.Errorf("states %d,%d differ in %02b", s, s+1, diff)
		}
	}
}

func TestGray4RoundTrip(t *testing.T) {
	for bits := uint(0); bits < 4; bits++ {
		if got := Gray4Decode(Gray4Encode(bits)); got != bits {
			t.Errorf("Gray round trip %02b -> %02b", bits, got)
		}
	}
	r := rng.New(3)
	data := randBits(r, 512)
	cells := EncodeGray4(data)
	if len(cells) != 256 {
		t.Fatalf("Gray cells = %d", len(cells))
	}
	if !DecodeGray4(cells).Equal(data) {
		t.Fatal("Gray block round trip failed")
	}
	// The Into forms fully overwrite buffers that hold another block.
	EncodeGray4Into(cells, randBits(r, 512))
	EncodeGray4Into(cells, data)
	bits := randBits(r, 512)
	DecodeGray4Into(bits, cells)
	if !bits.Equal(data) {
		t.Fatal("Gray block round trip through reused buffers failed")
	}
}

func TestTECBits3Adjacency(t *testing.T) {
	// S1=00, S2=01, S4=11: each single-state drift is one bit flip.
	pairs := [][2]int{{0, 1}, {1, 2}}
	for _, p := range pairs {
		diff := TECBits3(p[0]) ^ TECBits3(p[1])
		if diff == 0 || diff&(diff-1) != 0 {
			t.Errorf("states %v differ in %02b", p, diff)
		}
	}
}

func TestTECMessageRoundTrip(t *testing.T) {
	r := rng.New(4)
	cells := make([]int, 354)
	for i := range cells {
		cells[i] = r.Intn(3)
	}
	msg := TECMessage3(cells)
	if msg.Len() != 708 {
		t.Fatalf("TEC message = %d bits, want 708 (Section 6.3)", msg.Len())
	}
	back, bad := CellsFromTECMessage3(msg)
	if bad != 0 {
		t.Fatalf("bad patterns = %d", bad)
	}
	for i := range cells {
		if back[i] != cells[i] {
			t.Fatalf("cell %d: %d != %d", i, back[i], cells[i])
		}
	}
}

func TestTECState3RejectsInvalidPattern(t *testing.T) {
	if _, ok := TECState3(0b10); ok {
		t.Fatal("pattern 10 accepted")
	}
	msg := bitvec.New(2)
	msg.Set(1, 1) // 10 pattern
	cells, bad := CellsFromTECMessage3(msg)
	if bad != 1 || cells[0] != 2 {
		t.Fatalf("bad pattern handling: cells=%v bad=%d", cells, bad)
	}
}

func TestSmartEncodeReducesVulnerable(t *testing.T) {
	r := rng.New(5)
	// Adversarial data: all cells in vulnerable states.
	cells := make([]int, 256)
	for i := range cells {
		cells[i] = 1 + r.Intn(2) // S2 or S3
	}
	out, flags := SmartEncode4(cells)
	before, after := 0, 0
	for i := range cells {
		if vulnerable4(cells[i]) {
			before++
		}
		if vulnerable4(out[i]) {
			after++
		}
	}
	if after >= before {
		t.Fatalf("smart encoding did not help: %d -> %d", before, after)
	}
	back := SmartDecode4(out, flags)
	for i := range cells {
		if back[i] != cells[i] {
			t.Fatalf("smart round trip failed at %d", i)
		}
	}
}

func TestSmartEncodeRandomDataSkew(t *testing.T) {
	// On uniform random data the rotation trick still shifts occupancy
	// away from S2/S3 on average.
	r := rng.New(6)
	total := make([]float64, 4)
	const blocks = 200
	for b := 0; b < blocks; b++ {
		cells := make([]int, 256)
		for i := range cells {
			cells[i] = r.Intn(4)
		}
		out, _ := SmartEncode4(cells)
		h := StateHistogram(out, 4)
		for i := range total {
			total[i] += h[i] / blocks
		}
	}
	vuln := total[1] + total[2]
	if vuln >= 0.5 {
		t.Fatalf("vulnerable fraction %v not reduced below the uniform 0.5", vuln)
	}
}

func TestSmartRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%256 + 1
		r := rng.New(seed)
		cells := make([]int, n)
		for i := range cells {
			cells[i] = r.Intn(4)
		}
		out, flags := SmartEncode4(cells)
		back := SmartDecode4(out, flags)
		for i := range cells {
			if back[i] != cells[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEnumerativeMatchesThreeOnTwo(t *testing.T) {
	e := Enumerative{Levels: 3, Cells: 2}
	if e.Capacity() != 3 {
		t.Fatalf("capacity = %d", e.Capacity())
	}
	if !e.HasINV() {
		t.Fatal("3-ON-2 should reserve INV")
	}
	for bits := uint64(0); bits < 8; bits++ {
		cells := e.EncodeGroup(bits)
		c1, c2 := EncodePair(uint(bits))
		if cells[0] != c1 || cells[1] != c2 {
			t.Errorf("enumerative(%d) = %v, 3-ON-2 = (%d,%d)", bits, cells, c1, c2)
		}
	}
	if _, inv, _ := e.DecodeGroup([]int{2, 2}); !inv {
		t.Error("enumerative INV not detected")
	}
}

func TestEnumerativeFiveAndSixLevels(t *testing.T) {
	// Section 8: five- or six-level cells via the same machinery.
	cases := []struct {
		e        Enumerative
		capacity int
	}{
		{Enumerative{5, 3}, 6},  // 125 >= 64: 2 bits/cell
		{Enumerative{6, 5}, 12}, // 7776 >= 4096: 2.4 bits/cell
		{Enumerative{3, 2}, 3},
	}
	for _, c := range cases {
		if got := c.e.Capacity(); got != c.capacity {
			t.Errorf("%+v capacity = %d, want %d", c.e, got, c.capacity)
		}
		for trial := uint64(0); trial < 1<<uint(c.capacity); trial += 7 {
			cells := c.e.EncodeGroup(trial)
			val, inv, ok := c.e.DecodeGroup(cells)
			if inv || !ok || val != trial {
				t.Fatalf("%+v: round trip of %d failed (%d, %v, %v)", c.e, trial, val, inv, ok)
			}
		}
	}
}

func TestEnumerativeBlockRoundTrip(t *testing.T) {
	r := rng.New(7)
	for _, e := range []Enumerative{{3, 2}, {5, 3}, {6, 5}} {
		data := randBits(r, 512)
		cells := e.Encode(data)
		got, inv := e.Decode(cells, 512)
		if inv != 0 || !got.Equal(data) {
			t.Fatalf("%+v block round trip failed", e)
		}
	}
}

func TestEnumerativePanics(t *testing.T) {
	e := Enumerative{3, 2}
	for name, fn := range map[string]func(){
		"value":  func() { e.EncodeGroup(8) },
		"size":   func() { e.DecodeGroup([]int{1}) },
		"state":  func() { e.DecodeGroup([]int{1, 5}) },
		"params": func() { Enumerative{1, 1}.Capacity() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkEncodeThreeOnTwo(b *testing.B) {
	data := randBits(rng.New(1), 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeThreeOnTwo(data)
	}
}

func BenchmarkDecodeThreeOnTwo(b *testing.B) {
	data := randBits(rng.New(1), 512)
	cells := EncodeThreeOnTwo(data)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DecodeThreeOnTwo(cells, 512)
	}
}

func BenchmarkSmartEncode4(b *testing.B) {
	r := rng.New(1)
	cells := make([]int, 256)
	for i := range cells {
		cells[i] = r.Intn(4)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SmartEncode4(cells)
	}
}
