package pcmarray

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"unsafe"

	"repro/internal/levels"
	"repro/internal/wearout"
)

func newTestArray(t *testing.T, m levels.Mapping, n int) *Array {
	t.Helper()
	opt := DefaultOptions(1)
	opt.EnduranceMean = 0 // disable wearout unless a test enables it
	return New(m, n, opt)
}

func TestWriteSenseRoundTrip(t *testing.T) {
	for _, m := range []levels.Mapping{levels.FourLCNaive(), levels.ThreeLCNaive()} {
		a := newTestArray(t, m, 1000)
		for i := 0; i < a.Len(); i++ {
			want := i % m.Levels()
			if !a.Write(i, want) {
				t.Fatalf("%s: write failed", m.Name)
			}
			if got := a.Sense(i); got != want {
				t.Fatalf("%s: cell %d sensed %d, want %d", m.Name, i, got, want)
			}
		}
	}
}

func TestUnwrittenSensesTop(t *testing.T) {
	a := newTestArray(t, levels.ThreeLCNaive(), 4)
	if got := a.Sense(0); got != 2 {
		t.Fatalf("fresh cell sensed %d, want top state", got)
	}
}

func TestDriftCausesErrorsOverTime(t *testing.T) {
	// Program many 4LC cells to S3 and age the array: a visible fraction
	// must have drifted into S4 after a day (Figure 3's regime).
	m := levels.FourLCNaive()
	a := newTestArray(t, m, 200000)
	for i := 0; i < a.Len(); i++ {
		a.Write(i, 2) // S3
	}
	errAt := func() float64 {
		n := 0
		for i := 0; i < a.Len(); i++ {
			if a.Sense(i) != 2 {
				n++
			}
		}
		return float64(n) / float64(a.Len())
	}
	immediately := errAt()
	a.Advance(86400)
	afterDay := errAt()
	if immediately != 0 {
		t.Fatalf("errors immediately after write: %v", immediately)
	}
	if afterDay < 0.01 {
		t.Fatalf("S3 error rate after a day = %v, expected noticeable drift", afterDay)
	}
	// Drift only increases resistance: every errored cell must read S4.
	for i := 0; i < a.Len(); i++ {
		if s := a.Sense(i); s != 2 && s != 3 {
			t.Fatalf("cell %d drifted downward to %d", i, s)
		}
	}
}

func TestThreeLCDriftFarSlower(t *testing.T) {
	count := func(m levels.Mapping, state int, dt float64) float64 {
		a := newTestArray(t, m, 100000)
		for i := 0; i < a.Len(); i++ {
			a.Write(i, state)
		}
		a.Advance(dt)
		n := 0
		for i := 0; i < a.Len(); i++ {
			if a.Sense(i) != state {
				n++
			}
		}
		return float64(n) / float64(a.Len())
	}
	day := 86400.0
	four := count(levels.FourLCNaive(), 2, day)   // S3 in 4LC
	three := count(levels.ThreeLCNaive(), 1, day) // S2 in 3LC
	if three > 0 && four/three < 100 {
		t.Fatalf("3LC error rate %v not orders below 4LC %v", three, four)
	}
	if four < 0.01 {
		t.Fatalf("4LC S3 day error rate suspiciously low: %v", four)
	}
}

func TestRewriteResetsDriftClock(t *testing.T) {
	m := levels.FourLCNaive()
	a := newTestArray(t, m, 50000)
	for i := 0; i < a.Len(); i++ {
		a.Write(i, 2)
	}
	a.Advance(86400)
	// Refresh: rewrite everything.
	for i := 0; i < a.Len(); i++ {
		a.Write(i, 2)
	}
	n := 0
	for i := 0; i < a.Len(); i++ {
		if a.Sense(i) != 2 {
			n++
		}
	}
	if n != 0 {
		t.Fatalf("%d cells err immediately after rewrite", n)
	}
}

func TestWearoutEventuallyKillsCells(t *testing.T) {
	opt := DefaultOptions(2)
	opt.EnduranceMean = 100
	opt.EnduranceSigma = 0.2
	a := New(levels.ThreeLCNaive(), 50, opt)
	dead := 0
	for cycle := 0; cycle < 1000; cycle++ {
		for i := 0; i < a.Len(); i++ {
			if a.Mode(i) == wearout.Healthy {
				a.Write(i, cycle%3)
			}
		}
	}
	for i := 0; i < a.Len(); i++ {
		if a.Mode(i) != wearout.Healthy {
			dead++
		}
	}
	if dead < a.Len()/2 {
		t.Fatalf("only %d/%d cells wore out after 10x endurance", dead, a.Len())
	}
}

func TestStuckResetBehaviour(t *testing.T) {
	a := newTestArray(t, levels.ThreeLCNaive(), 4)
	a.InjectFailure(0, wearout.StuckReset)
	if a.Write(0, 1) {
		t.Fatal("write to non-top state verified on a stuck-reset cell")
	}
	if got := a.Sense(0); got != 2 {
		t.Fatalf("stuck-reset cell sensed %d", got)
	}
	if !a.Write(0, 2) {
		t.Fatal("writing the top state to a stuck-reset cell should verify")
	}
	a.Advance(1e9)
	if got := a.Sense(0); got != 2 {
		t.Fatal("stuck cells must not drift across thresholds")
	}
}

func TestStuckSetBehaviour(t *testing.T) {
	a := newTestArray(t, levels.ThreeLCNaive(), 4)
	a.InjectFailure(1, wearout.StuckSet)
	if a.Write(1, 2) {
		t.Fatal("stuck-set cell verified at top state")
	}
	if !a.Write(1, 0) {
		t.Fatal("stuck-set cell should program to lower states")
	}
	if got := a.Sense(1); got != 0 {
		t.Fatalf("stuck-set cell sensed %d after writing 0", got)
	}
}

func TestReviveStuckSet(t *testing.T) {
	opt := DefaultOptions(3)
	opt.EnduranceMean = 0
	opt.ReviveProbability = 1
	a := New(levels.ThreeLCNaive(), 4, opt)
	a.InjectFailure(2, wearout.StuckSet)
	if !a.Revive(2) {
		t.Fatal("revival failed at probability 1")
	}
	if a.Mode(2) != wearout.StuckSetRevived {
		t.Fatal("mode not updated")
	}
	if got := a.Sense(2); got != 2 {
		t.Fatalf("revived cell sensed %d", got)
	}
	// Reviving a healthy cell is a no-op.
	if a.Revive(0) {
		t.Fatal("revived a healthy cell")
	}
}

func TestReviveCanFail(t *testing.T) {
	opt := DefaultOptions(4)
	opt.EnduranceMean = 0
	opt.ReviveProbability = 0
	a := New(levels.ThreeLCNaive(), 4, opt)
	a.InjectFailure(0, wearout.StuckSet)
	if a.Revive(0) {
		t.Fatal("revival succeeded at probability 0")
	}
	if a.Mode(0) != wearout.StuckSet {
		t.Fatal("mode changed on failed revival")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		a := New(levels.FourLCNaive(), 1000, DefaultOptions(77))
		for i := 0; i < a.Len(); i++ {
			a.Write(i, i%4)
		}
		a.Advance(3.2e6)
		out := make([]int, a.Len())
		for i := range out {
			out[i] = a.Sense(i)
		}
		return out
	}
	x, y := run(), run()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("divergence at cell %d", i)
		}
	}
}

func TestOperationCounters(t *testing.T) {
	a := newTestArray(t, levels.ThreeLCNaive(), 10)
	a.Write(0, 1)
	a.Write(1, 2)
	a.Sense(0)
	if a.Writes != 2 || a.SenseOps != 1 {
		t.Fatalf("counters: writes=%d senses=%d", a.Writes, a.SenseOps)
	}
}

func TestPanics(t *testing.T) {
	a := newTestArray(t, levels.ThreeLCNaive(), 2)
	for name, fn := range map[string]func(){
		"badState":  func() { a.Write(0, 5) },
		"negAdv":    func() { a.Advance(-1) },
		"zeroCells": func() { New(levels.ThreeLCNaive(), 0, DefaultOptions(1)) },
		"badMode":   func() { a.InjectFailure(0, wearout.FailureMode(math.MaxUint8+1)) },
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

// TestCellRecordSize guards the packed cell record: a served device
// holds hundreds of cells per block, so the record size is most of its
// heap.
func TestCellRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(cell{}); got > 48 {
		t.Fatalf("cell record is %d bytes, want <= 48", got)
	}
}

func TestEnduranceBoundary(t *testing.T) {
	for _, k := range []int{0, 1, 5, 37} {
		a := newTestArray(t, levels.ThreeLCNaive(), 1)
		a.SetEndurance(0, k)
		for w := 1; w <= k; w++ {
			if !a.Write(0, w%2) {
				t.Fatalf("k=%d: write %d did not verify", k, w)
			}
			if a.Mode(0) != wearout.Healthy {
				t.Fatalf("k=%d: cell failed on write %d", k, w)
			}
		}
		a.Write(0, 0)
		if a.Mode(0) == wearout.Healthy {
			t.Fatalf("k=%d: cell still healthy after write %d", k, k+1)
		}
		if got := a.Wear(0); got != k+1 {
			t.Fatalf("k=%d: wear %d, want %d", k, got, k+1)
		}
	}
}

func TestEnduranceDisabledIsMaxInt32(t *testing.T) {
	a := newTestArray(t, levels.ThreeLCNaive(), 8)
	for i := range a.cells {
		if got := a.cells[i].endurance; got != math.MaxInt32 {
			t.Fatalf("cell %d endurance %d with wear-out disabled, want MaxInt32", i, got)
		}
	}
}

func TestFailureModesRoundTrip(t *testing.T) {
	modes := []wearout.FailureMode{wearout.Healthy, wearout.StuckReset, wearout.StuckSet, wearout.StuckSetRevived}
	for _, m := range modes {
		if m < 0 || m > math.MaxUint8 {
			t.Fatalf("%v does not fit the cell's mode byte", m)
		}
		opt := DefaultOptions(5)
		opt.EnduranceMean = 0
		opt.ReviveProbability = 1
		a := New(levels.ThreeLCNaive(), 1, opt)
		a.InjectFailure(0, m)
		if got := a.Mode(0); got != m {
			t.Fatalf("injected %v, Mode reads %v", m, got)
		}
		revived := a.Revive(0)
		want := m
		if m == wearout.StuckSet {
			want = wearout.StuckSetRevived
		}
		if revived != (m == wearout.StuckSet) || a.Mode(0) != want {
			t.Fatalf("%v: Revive=%v, mode %v; want mode %v", m, revived, a.Mode(0), want)
		}
	}
}

// TestFixedSequenceFingerprint pins the observable state of an array
// after a fixed sequence of writes, wear-outs, revivals and aging — wear
// counts, failure modes, sensed states and analog resistances — to the
// values the array produced before its cell record was packed.
func TestFixedSequenceFingerprint(t *testing.T) {
	for _, tc := range []struct {
		m               levels.Mapping
		wantWear        int
		wantFailed      int
		wantFingerprint uint64
	}{
		{levels.ThreeLCNaive(), 12101, 274, 0x26e7fe772c25d41},
		{levels.FourLCNaive(), 12101, 274, 0xd83bd924964fef7f},
	} {
		opt := DefaultOptions(9)
		opt.EnduranceMean = 40
		opt.ReviveProbability = 0.5
		a := New(tc.m, 300, opt)
		for cycle := 0; cycle < 60; cycle++ {
			for i := 0; i < a.Len(); i++ {
				a.Write(i, (i+cycle)%tc.m.Levels())
				if cycle%7 == 3 && a.Mode(i) == wearout.StuckSet {
					a.Revive(i)
				}
			}
			a.Advance(float64(cycle) * 100)
		}
		a.Advance(1e7)
		h := fnv.New64a()
		wear, failed := 0, 0
		for i := 0; i < a.Len(); i++ {
			wear += a.Wear(i)
			if a.Mode(i) != wearout.Healthy {
				failed++
			}
			fmt.Fprintf(h, "%d %d %d %x;", a.Wear(i), a.Mode(i), a.Sense(i), math.Float64bits(a.LogR(i)))
		}
		if wear != tc.wantWear || failed != tc.wantFailed || h.Sum64() != tc.wantFingerprint {
			t.Errorf("%s: wear %d, failed %d, fingerprint %#x; want %d, %d, %#x",
				tc.m.Name, wear, failed, h.Sum64(), tc.wantWear, tc.wantFailed, tc.wantFingerprint)
		}
	}
}

func BenchmarkWriteSense(b *testing.B) {
	a := New(levels.ThreeLCNaive(), 4096, DefaultOptions(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		idx := i & 4095
		a.Write(idx, i%3)
		a.Sense(idx)
	}
}
