package core

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/pcmarray"
	"repro/internal/wearout"
)

// noWear disables endurance so tests control faults explicitly.
func noWear(seed uint64) pcmarray.Options {
	opt := pcmarray.DefaultOptions(seed)
	opt.EnduranceMean = 0
	return opt
}

func pattern(seed byte) []byte {
	data := make([]byte, BlockBytes)
	for i := range data {
		data[i] = seed ^ byte(i*37+11)
	}
	return data
}

func allArchs(seed uint64, blocks int) []Arch {
	return []Arch{
		NewThreeLC(blocks, ThreeLCConfig{Array: noWear(seed)}),
		NewFourLC(blocks, FourLCConfig{Array: noWear(seed)}),
		NewPermutation(blocks, noWear(seed)),
	}
}

func TestCleanRoundTripAllArchs(t *testing.T) {
	for _, a := range allArchs(1, 8) {
		for b := 0; b < a.Blocks(); b++ {
			want := pattern(byte(b))
			if err := a.Write(b, want); err != nil {
				t.Fatalf("%s: write: %v", a.Name(), err)
			}
			got, err := a.Read(b)
			if err != nil {
				t.Fatalf("%s: read: %v", a.Name(), err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: block %d corrupted", a.Name(), b)
			}
		}
	}
}

func TestReadBeforeWriteFails(t *testing.T) {
	for _, a := range allArchs(2, 2) {
		if _, err := a.Read(0); err == nil {
			t.Errorf("%s: read of unwritten block succeeded", a.Name())
		}
		if _, err := a.Read(99); err == nil {
			t.Errorf("%s: out-of-range read succeeded", a.Name())
		}
		if err := a.Write(0, []byte{1, 2, 3}); err == nil {
			t.Errorf("%s: short write accepted", a.Name())
		}
	}
}

func TestOverwriteReplacesData(t *testing.T) {
	for _, a := range allArchs(3, 1) {
		first := pattern(0xAA)
		second := pattern(0x55)
		if err := a.Write(0, first); err != nil {
			t.Fatal(err)
		}
		if err := a.Write(0, second); err != nil {
			t.Fatal(err)
		}
		got, err := a.Read(0)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if !bytes.Equal(got, second) {
			t.Fatalf("%s: overwrite not visible", a.Name())
		}
	}
}

func TestThreeLCRetainsDataForTenYears(t *testing.T) {
	// The headline result: 3LCo holds data without refresh for more than
	// ten years (Section 5.3).
	a := NewThreeLC(16, ThreeLCConfig{Array: noWear(4)})
	want := make([][]byte, a.Blocks())
	for b := range want {
		want[b] = pattern(byte(3 * b))
		if err := a.Write(b, want[b]); err != nil {
			t.Fatal(err)
		}
	}
	a.Array().Advance(10 * 365.25 * 86400)
	for b := range want {
		got, err := a.Read(b)
		if err != nil {
			t.Fatalf("block %d after 10 years: %v", b, err)
		}
		if !bytes.Equal(got, want[b]) {
			t.Fatalf("block %d lost data after 10 years", b)
		}
	}
}

func TestFourLCDriftsWithoutRefresh(t *testing.T) {
	// Conversely, 4LC data decays without refresh: after 12 days the cell
	// error rate (~several percent) swamps BCH-10 on most blocks.
	a := NewFourLC(32, FourLCConfig{Array: noWear(5)})
	for b := 0; b < a.Blocks(); b++ {
		if err := a.Write(b, pattern(byte(b))); err != nil {
			t.Fatal(err)
		}
	}
	a.Array().Advance(12 * 86400)
	bad := 0
	for b := 0; b < a.Blocks(); b++ {
		got, err := a.Read(b)
		if err != nil || !bytes.Equal(got, pattern(byte(b))) {
			bad++
		}
	}
	if bad == 0 {
		t.Fatal("no 4LC block decayed in 12 unrefreshed days; drift model inert?")
	}
}

func TestFourLCSurvivesWithRefresh(t *testing.T) {
	// With 17-minute scrubbing, 4LCo is reliable volatile memory: run 24
	// refresh periods and verify data integrity throughout.
	a := NewFourLC(4, FourLCConfig{Array: noWear(6)})
	want := make([][]byte, a.Blocks())
	for b := range want {
		want[b] = pattern(byte(b * 7))
		if err := a.Write(b, want[b]); err != nil {
			t.Fatal(err)
		}
	}
	for period := 0; period < 24; period++ {
		a.Array().Advance(17 * 60)
		for b := range want {
			if err := a.Scrub(b); err != nil {
				t.Fatalf("scrub period %d block %d: %v", period, b, err)
			}
		}
	}
	for b := range want {
		got, err := a.Read(b)
		if err != nil || !bytes.Equal(got, want[b]) {
			t.Fatalf("block %d lost data under refresh: %v", b, err)
		}
	}
}

func TestThreeLCToleratesSixWearoutFailures(t *testing.T) {
	a := NewThreeLC(1, ThreeLCConfig{Array: noWear(7)})
	// All-zero data puts every pair at [S1, S1], so a stuck-reset cell
	// (pinned at S4) deterministically fails write-and-verify.
	want := make([]byte, BlockBytes)
	for k := 0; k < 6; k++ {
		a.Array().InjectFailure(2*(20*k+1), wearout.StuckReset)
	}
	if err := a.Write(0, want); err != nil {
		t.Fatalf("write with 6 failures: %v", err)
	}
	if got := a.MarkedPairs(0); got != 6 {
		t.Fatalf("marked pairs = %d, want 6", got)
	}
	got, err := a.Read(0)
	if err != nil {
		t.Fatalf("read with 6 marked pairs: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("data corrupted by mark-and-spare")
	}
}

func TestThreeLCSeventhFailureExhausts(t *testing.T) {
	a := NewThreeLC(1, ThreeLCConfig{Array: noWear(8)})
	for k := 0; k < 7; k++ {
		a.Array().InjectFailure(2*(15*k+2), wearout.StuckReset)
	}
	if err := a.Write(0, make([]byte, BlockBytes)); !errors.Is(err, ErrWornOut) {
		t.Fatalf("7 failures: err = %v, want ErrWornOut", err)
	}
}

func TestThreeLCWearoutDiscoveredViaEndurance(t *testing.T) {
	// The organic path: exhausted endurance surfaces as verify failures
	// over subsequent writes (a stuck cell fails only when its target
	// conflicts with its pinned state), and marking accumulates without
	// ever corrupting data.
	a := NewThreeLC(1, ThreeLCConfig{Array: noWear(18)})
	if err := a.Write(0, pattern(0)); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		a.Array().SetEndurance(2*(25*k+3), 0)
	}
	for i := 0; i < 12; i++ {
		data := pattern(byte(i * 29))
		if err := a.Write(0, data); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		got, err := a.Read(0)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("silent corruption at iteration %d", i)
		}
	}
	if got := a.MarkedPairs(0); got == 0 {
		t.Fatal("no failures discovered across 12 writes")
	}
}

func TestThreeLCStuckSetUnrevivableHiddenByECC(t *testing.T) {
	// Section 6.4: a stuck-set cell that cannot be forced into S4 is
	// hidden by the single-bit TEC.
	opt := noWear(9)
	opt.ReviveProbability = 0
	a := NewThreeLC(1, ThreeLCConfig{Array: opt})
	// All-ones data: every pair holds 111 → [S2, S4]... place S4 on the
	// first cell of each pair (value 7 → states S4, S2), so a stuck-set
	// first cell deterministically fails verify and triggers marking.
	want := bytes.Repeat([]byte{0xFF}, BlockBytes)
	if err := a.Write(0, want); err != nil {
		t.Fatal(err)
	}
	a.Array().InjectFailure(40, wearout.StuckSet) // cell 40 = pair 20, first cell
	if err := a.Write(0, want); err != nil {
		t.Fatalf("write with unrevivable stuck-set: %v", err)
	}
	got, err := a.Read(0)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("unrevivable stuck-set cell corrupted data")
	}
}

func TestFourLCToleratesSixFailures(t *testing.T) {
	a := NewFourLC(1, FourLCConfig{Array: noWear(10)})
	want := pattern(0x99)
	for _, c := range []int{0, 31, 64, 128, 200, 255} {
		a.Array().SetEndurance(c, 0)
	}
	if err := a.Write(0, want); err != nil {
		t.Fatalf("write with 6 failures: %v", err)
	}
	if used := a.ECPEntriesUsed(0); used == 0 {
		t.Fatal("no ECP entries allocated despite failures")
	}
	got, err := a.Read(0)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("ECP failed to restore data")
	}
}

func TestFourLCSeventhFailureExhausts(t *testing.T) {
	a := NewFourLC(1, FourLCConfig{Array: noWear(11)})
	// All-zero data targets state S1 everywhere; stuck-reset cells all
	// fail verify at once.
	for c := 0; c < 7; c++ {
		a.Array().InjectFailure(c*30, wearout.StuckReset)
	}
	if err := a.Write(0, make([]byte, BlockBytes)); !errors.Is(err, ErrWornOut) {
		t.Fatalf("7 failures: err = %v, want ErrWornOut", err)
	}
}

func TestPermutationSurvivesModerateAging(t *testing.T) {
	a := NewPermutation(4, noWear(12))
	want := make([][]byte, a.Blocks())
	for b := range want {
		want[b] = pattern(byte(b + 100))
		if err := a.Write(b, want[b]); err != nil {
			t.Fatal(err)
		}
	}
	a.Array().Advance(3600) // one hour
	for b := range want {
		got, err := a.Read(b)
		if err != nil {
			t.Fatalf("block %d after an hour: %v", b, err)
		}
		if !bytes.Equal(got, want[b]) {
			t.Fatalf("block %d corrupted", b)
		}
	}
}

func TestPermutationToleratesHardFailures(t *testing.T) {
	a := NewPermutation(1, noWear(13))
	want := pattern(0xE1)
	for _, c := range []int{3, 50, 111, 200, 280, 320} {
		a.Array().SetEndurance(c, 0)
	}
	if err := a.Write(0, want); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := a.Read(0)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("data corrupted")
	}
}

func TestScrubRestoresMargins(t *testing.T) {
	// Scrubbing a partially drifted 4LC block rewrites nominal values, so
	// a subsequent long wait starts from fresh margins.
	a := NewFourLC(1, FourLCConfig{Array: noWear(14)})
	want := pattern(0x42)
	if err := a.Write(0, want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		a.Array().Advance(17 * 60)
		if err := a.Scrub(0); err != nil {
			t.Fatalf("scrub %d: %v", i, err)
		}
	}
	got, err := a.Read(0)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("data lost across 50 scrub periods: %v", err)
	}
}

func TestDensityAnchorsTable3(t *testing.T) {
	// Table 3 densities at the six-failure design point.
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"3-ON-2", ThreeLCDensity(6), 1.41},
		{"4LCo", FourLCDensity(6), 1.52},
		{"permutation", PermutationDensity(6), 1.29},
	}
	for _, c := range cases {
		if math.Abs(c.got-c.want) > 0.012 {
			t.Errorf("%s density = %.4f, paper says %.2f", c.name, c.got, c.want)
		}
	}
	// Section 6.5: the 3-ON-2 capacity gap vs 4LC is only ~7.4%.
	gap := 1 - ThreeLCDensity(6)/FourLCDensity(6)
	if gap < 0.06 || gap > 0.09 {
		t.Errorf("capacity gap = %.4f, paper says 7.4%%", gap)
	}
}

func TestDensityCrossoverFigure15(t *testing.T) {
	// Figure 15: mark-and-spare's 2-cells-per-failure overhead grows
	// slowest, so 3-ON-2 overtakes 4LC as tolerated failures increase.
	if ThreeLCDensity(0) >= FourLCDensity(0) {
		t.Error("at zero failures 4LC should be densest")
	}
	if ThreeLCDensity(20) <= FourLCDensity(20) {
		t.Error("at 20 failures 3-ON-2 should have overtaken 4LC")
	}
	// Permutation starts above 3-ON-2 (raw 11/7 beats 3/2) but its
	// 10-cells-per-failure ECP cost drops it below by n = 2 and it stays
	// lowest from there on.
	if PermutationDensity(0) <= ThreeLCDensity(0) {
		t.Error("at zero failures raw permutation density should exceed 3-ON-2")
	}
	for n := 2; n <= 20; n++ {
		if PermutationDensity(n) >= ThreeLCDensity(n) {
			t.Errorf("permutation density above 3-ON-2 at n=%d", n)
		}
	}
}

func TestArchReportedGeometry(t *testing.T) {
	three := NewThreeLC(1, ThreeLCConfig{Array: noWear(15)})
	if three.CellsPerBlock() != 364 {
		t.Errorf("3LC cells/block = %d, want 364", three.CellsPerBlock())
	}
	four := NewFourLC(1, FourLCConfig{Array: noWear(15)})
	if four.CellsPerBlock() != 337 {
		t.Errorf("4LC cells/block = %d, want 337 (306 array + 31 ECP)", four.CellsPerBlock())
	}
	perm := NewPermutation(1, noWear(15))
	if perm.CellsPerBlock() != 399 {
		t.Errorf("perm cells/block = %d, want 399", perm.CellsPerBlock())
	}
}

func TestWearoutUnderEndurance(t *testing.T) {
	// End-to-end: with realistic (scaled-down) endurance, repeated writes
	// eventually exhaust a 3LC block's spare pairs, and the failure is
	// reported — not silent corruption.
	opt := pcmarray.DefaultOptions(16)
	opt.EnduranceMean = 200
	opt.EnduranceSigma = 0.2
	a := NewThreeLC(1, ThreeLCConfig{Array: opt})
	var reported error
	for i := 0; i < 5000; i++ {
		data := pattern(byte(i))
		if err := a.Write(0, data); err != nil {
			reported = err
			break
		}
		got, err := a.Read(0)
		if err != nil {
			reported = err
			break
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("silent corruption at write %d", i)
		}
	}
	if !errors.Is(reported, ErrWornOut) && reported != nil {
		t.Fatalf("unexpected failure kind: %v", reported)
	}
	if reported == nil {
		t.Fatal("block never wore out at 200-cycle endurance")
	}
}

func TestStuckResetDuringOperation(t *testing.T) {
	a := NewThreeLC(1, ThreeLCConfig{Array: noWear(17)})
	want := pattern(0xF0)
	if err := a.Write(0, want); err != nil {
		t.Fatal(err)
	}
	// Pick a cell currently holding S2: when it sticks at S4 the TEC
	// mapping (S2=01 → S4=11) sees exactly one bit error, which BCH-1
	// corrects. (A stuck S1 cell would be a two-bit event — that case
	// needs the next write's verify to discover it, as the paper's
	// write-after-verify flow does.)
	victim := -1
	for i := 0; i < 342; i++ {
		if a.Array().Sense(i) == 1 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no S2 cell found in the pattern")
	}
	a.Array().InjectFailure(victim, wearout.StuckReset)
	got, err := a.Read(0)
	if err != nil {
		t.Fatalf("read with in-place stuck cell: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("single stuck cell corrupted data despite BCH-1")
	}
	// An all-zero write (every target S1) deterministically discovers the
	// failure and marks the pair.
	zero := make([]byte, BlockBytes)
	if err := a.Write(0, zero); err != nil {
		t.Fatal(err)
	}
	if a.MarkedPairs(0) != 1 {
		t.Fatalf("marked pairs = %d after discovery", a.MarkedPairs(0))
	}
	got, err = a.Read(0)
	if err != nil || !bytes.Equal(got, zero) {
		t.Fatalf("post-discovery read: %v", err)
	}
}

// TestThreeLCSteadyStateAllocs pins the 3LC pipeline's allocations:
// once warm, Write allocates nothing and Read only the block it returns.
func TestThreeLCSteadyStateAllocs(t *testing.T) {
	for _, useHsiao := range []bool{false, true} {
		a := NewThreeLC(4, ThreeLCConfig{UseHsiao: useHsiao, Array: noWear(3)})
		data := pattern(5)
		write := func() {
			if err := a.Write(1, data); err != nil {
				t.Fatal(err)
			}
		}
		read := func() {
			if _, err := a.Read(1); err != nil {
				t.Fatal(err)
			}
		}
		write()
		read()
		if n := testing.AllocsPerRun(100, write); n != 0 {
			t.Errorf("%s: Write makes %v allocations, want 0", a.Name(), n)
		}
		if n := testing.AllocsPerRun(100, read); n != 1 {
			t.Errorf("%s: Read makes %v allocations, want 1", a.Name(), n)
		}
	}
}

// TestThreeLCReadResultsAreNotShared checks that a returned block stays
// the caller's: later reads and writes through the instance's reused
// buffers must not change it.
func TestThreeLCReadResultsAreNotShared(t *testing.T) {
	a := NewThreeLC(2, ThreeLCConfig{Array: noWear(4)})
	x, y := pattern(1), pattern(2)
	for blk, d := range [][]byte{x, y} {
		if err := a.Write(blk, d); err != nil {
			t.Fatal(err)
		}
	}
	got, err := a.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Read(1); err != nil {
		t.Fatal(err)
	}
	if err := a.Write(1, pattern(3)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, x) {
		t.Fatal("a returned block changed under later operations")
	}
}

func BenchmarkThreeLCWriteRead(b *testing.B) {
	a := NewThreeLC(64, ThreeLCConfig{Array: noWear(1)})
	data := pattern(9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := i & 63
		if err := a.Write(blk, data); err != nil {
			b.Fatal(err)
		}
		if _, err := a.Read(blk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFourLCWriteRead(b *testing.B) {
	a := NewFourLC(64, FourLCConfig{Array: noWear(1)})
	data := pattern(9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := i & 63
		if err := a.Write(blk, data); err != nil {
			b.Fatal(err)
		}
		if _, err := a.Read(blk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPermutationWriteRead(b *testing.B) {
	a := NewPermutation(64, noWear(1))
	data := pattern(9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk := i & 63
		if err := a.Write(blk, data); err != nil {
			b.Fatal(err)
		}
		if _, err := a.Read(blk); err != nil {
			b.Fatal(err)
		}
	}
}
