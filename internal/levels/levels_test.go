package levels

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestPredefinedMappingsValidate(t *testing.T) {
	for _, m := range []Mapping{FourLCNaive(), FourLCSmart(), ThreeLCNaive(), Uniform(5), Uniform(6)} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestOptimizedMappingsValidate(t *testing.T) {
	for _, m := range []Mapping{FourLCOpt(), ThreeLCOpt()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

// TestFrozenMappingsMatchOptimizer reruns the Section 5.1 optimizer and
// checks that the frozen 4LCo/3LCo literals are its output. The match is
// exact on amd64; elsewhere pure-Go math.Exp may differ in the last ulp,
// so each coordinate need only agree within 1e-9. On a mismatch the test
// prints the literals to paste into FourLCOpt/ThreeLCOpt.
func TestFrozenMappingsMatchOptimizer(t *testing.T) {
	for _, tc := range []struct {
		frozen Mapping
		start  Mapping
	}{
		{FourLCOpt(), FourLCSmart()},
		{ThreeLCOpt(), ThreeLCNaive()},
	} {
		want := Optimize(tc.start, DefaultOptimizeOptions())
		want.Name = tc.frozen.Name
		got := tc.frozen
		var ok bool
		if runtime.GOARCH == "amd64" {
			ok = reflect.DeepEqual(got, want)
		} else {
			g, w := got, want
			g.Nominals, g.Thresholds, w.Nominals, w.Thresholds = nil, nil, nil, nil
			ok = reflect.DeepEqual(g, w) &&
				closeSlices(got.Nominals, want.Nominals, 1e-9) &&
				closeSlices(got.Thresholds, want.Thresholds, 1e-9)
		}
		if !ok {
			t.Errorf("%s no longer matches the optimizer (GOARCH %s); frozen literals should be:\n"+
				"\tm.Nominals = %#v\n\tm.Thresholds = %#v\nfull optimizer output: %+v",
				got.Name, runtime.GOARCH, want.Nominals, want.Thresholds, want)
		}
	}
}

func closeSlices(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// TestOptimalMappingsReturnFreshSlices guards against aliasing: a caller
// that writes into a returned mapping must not change the mapping any
// later caller gets.
func TestOptimalMappingsReturnFreshSlices(t *testing.T) {
	for _, ctor := range []func() Mapping{FourLCOpt, ThreeLCOpt} {
		orig := ctor()
		want := fmt.Sprintf("%#v", orig)
		m := ctor()
		for i := range m.Nominals {
			m.Nominals[i] = -1
		}
		for i := range m.Thresholds {
			m.Thresholds[i] = -1
		}
		for i := range m.Probs {
			m.Probs[i] = -1
		}
		for i := range m.AlphaIdx {
			m.AlphaIdx[i] = -1
		}
		if got := fmt.Sprintf("%#v", ctor()); got != want {
			t.Errorf("%s changed after a caller mutated a returned copy:\ngot  %s\nwant %s", orig.Name, got, want)
		}
		if got := fmt.Sprintf("%#v", orig); got != want {
			t.Errorf("%s: mutating one copy changed another:\ngot  %s\nwant %s", orig.Name, got, want)
		}
	}
}

func TestValidateRejectsBadMappings(t *testing.T) {
	bad := FourLCNaive()
	bad.Thresholds[0] = 3.05 // inside S1's write window
	if bad.Validate() == nil {
		t.Error("threshold inside write window accepted")
	}
	bad = FourLCNaive()
	bad.Probs = []float64{0.5, 0.5, 0.5, 0.5}
	if bad.Validate() == nil {
		t.Error("non-normalized probabilities accepted")
	}
	bad = FourLCNaive()
	bad.Probs = bad.Probs[:3]
	if bad.Validate() == nil {
		t.Error("short probability slice accepted")
	}
}

func TestStateReadback(t *testing.T) {
	m := FourLCNaive()
	for i, nom := range m.Nominals {
		if got := m.State(nom); got != i {
			t.Errorf("State(%v) = %d, want %d", nom, got, i)
		}
	}
	if got := m.State(2.0); got != 0 {
		t.Errorf("State(2.0) = %d", got)
	}
	if got := m.State(9.0); got != 3 {
		t.Errorf("State(9.0) = %d", got)
	}
	// Threshold boundaries read as the upper state.
	if got := m.State(3.5); got != 1 {
		t.Errorf("State(3.5) = %d, want 1", got)
	}
}

func TestStateThreeLevel(t *testing.T) {
	m := ThreeLCNaive()
	cases := []struct {
		logR float64
		want int
	}{{3, 0}, {4, 1}, {5.0, 1}, {5.6, 2}, {6, 2}}
	for _, c := range cases {
		if got := m.State(c.logR); got != c.want {
			t.Errorf("State(%v) = %d, want %d", c.logR, got, c.want)
		}
	}
}

func TestPDFIntegratesToOne(t *testing.T) {
	// Integrate piecewise over each state's truncation window so the
	// quadrature never straddles a density discontinuity.
	for _, m := range []Mapping{FourLCNaive(), FourLCSmart(), ThreeLCNaive()} {
		got := 0.0
		for _, spec := range m.Specs() {
			got += stats.GaussLegendrePanels(m.PDF, spec.WriteLow(), spec.WriteHigh(), 4)
		}
		if math.Abs(got-1) > 1e-9 {
			t.Errorf("%s: pdf integrates to %v", m.Name, got)
		}
	}
}

func TestSpecsThresholdStructure(t *testing.T) {
	m := FourLCNaive()
	specs := m.Specs()
	if len(specs) != 4 {
		t.Fatalf("got %d specs", len(specs))
	}
	if !math.IsInf(specs[3].Upper, 1) {
		t.Error("top state has a finite threshold")
	}
	for i := 0; i < 3; i++ {
		if specs[i].Upper != m.Thresholds[i] {
			t.Errorf("spec %d upper %v != threshold %v", i, specs[i].Upper, m.Thresholds[i])
		}
		if specs[i].Switch != nil {
			t.Errorf("4LC spec %d unexpectedly has a rate switch", i)
		}
	}
}

func TestThreeLCSpecsHaveRateSwitch(t *testing.T) {
	specs := ThreeLCNaive().Specs()
	if specs[0].Switch != nil {
		t.Error("S1 should not cross the switch resistance before its threshold")
	}
	if specs[1].Switch == nil {
		t.Fatal("S2 must carry the drift-rate switch")
	}
	if specs[1].Switch.AtLogR != 4.5 {
		t.Errorf("switch at %v, want 4.5", specs[1].Switch.AtLogR)
	}
	if specs[1].Switch.Alpha.Mu != 0.06 {
		t.Errorf("switch alpha %v, want S3's 0.06", specs[1].Switch.Alpha.Mu)
	}
	if specs[2].Switch != nil {
		t.Error("top state should not have a switch")
	}
}

func TestSmartEncodingLowersCER(t *testing.T) {
	// Figure 8: 4LCs sits below 4LCn because the vulnerable states are
	// depopulated (15% instead of 25%).
	tRef := 17.0 * 60
	n := FourLCNaive().QuadCER(tRef)
	s := FourLCSmart().QuadCER(tRef)
	if s >= n {
		t.Fatalf("4LCs CER %v not below 4LCn %v", s, n)
	}
	ratio := n / s
	if ratio < 1.3 || ratio > 2.5 {
		t.Errorf("4LCs improvement ratio %v outside the expected 25/15 band", ratio)
	}
}

func TestOptimalFourLCShape(t *testing.T) {
	// Figure 6: nominals of S2 and S3 shift left; the S3/S4 threshold
	// shifts right, widening S3's drift margin.
	naive := FourLCNaive()
	opt := FourLCOpt()
	if opt.Nominals[1] >= naive.Nominals[1] {
		t.Errorf("µ2 did not shift left: %v", opt.Nominals[1])
	}
	if opt.Nominals[2] >= naive.Nominals[2] {
		t.Errorf("µ3 did not shift left: %v", opt.Nominals[2])
	}
	if opt.Thresholds[2] <= naive.Thresholds[2] {
		t.Errorf("τ3 did not shift right: %v", opt.Thresholds[2])
	}
	// S3's margin to τ3 must have widened significantly.
	naiveMargin := naive.Thresholds[2] - (naive.Nominals[2] + 2.75/6)
	optMargin := opt.Thresholds[2] - (opt.Nominals[2] + 2.75/6)
	if optMargin < 2*naiveMargin {
		t.Errorf("S3 margin %v not significantly wider than naive %v", optMargin, naiveMargin)
	}
}

func TestOptimalFourLCImprovesCER(t *testing.T) {
	// Section 5.3: 4LCo achieves roughly an order of magnitude lower CER
	// than 4LCn; at the 17-minute refresh interval it is around 1E-3.
	tRef := 17.0 * 60
	n := FourLCNaive().QuadCER(tRef)
	o := FourLCOpt().QuadCER(tRef)
	if o >= n/3 {
		t.Fatalf("4LCo CER %v not well below 4LCn %v", o, n)
	}
	if o < 5e-5 || o > 6e-3 {
		t.Errorf("4LCo CER(17 min) = %v, paper reports ~1E-3", o)
	}
}

func TestThreeLCOrdersOfMagnitudeBetter(t *testing.T) {
	// Figure 8: the 3LC designs sit orders of magnitude below every 4LC
	// design.
	tRef := 17.0 * 60
	fourBest := FourLCOpt().QuadCER(tRef)
	threeN := ThreeLCNaive().QuadCER(tRef)
	threeO := ThreeLCOpt().QuadCER(tRef)
	if threeN > fourBest/1e3 {
		t.Errorf("3LCn CER %v not ≥3 orders below 4LCo %v", threeN, fourBest)
	}
	if threeO > threeN+1e-18 {
		t.Errorf("3LCo CER %v above 3LCn %v", threeO, threeN)
	}
}

func TestThreeLCNaiveNegligibleUntilOneYear(t *testing.T) {
	// Section 5.3: "Even a simple mapping (3LCn) has negligible cell
	// error rate until one year."
	year := 365.25 * 86400.0
	if got := ThreeLCNaive().QuadCER(year); got > 1e-7 {
		t.Errorf("3LCn CER(1 yr) = %v, expected negligible", got)
	}
}

func TestThreeLCOptRetention(t *testing.T) {
	// Section 5.3: 3LCo's error-free period exceeds 16 years; at 68 years
	// the rate is about 1E-8, low enough for BCH-1.
	year := 365.25 * 86400.0
	m := ThreeLCOpt()
	if got := m.QuadCER(10 * year); got > 1e-9 {
		t.Errorf("3LCo CER(10 yr) = %v, want < 1e-9 (nonvolatility)", got)
	}
	if got := m.QuadCER(68 * year); got > 1e-5 {
		t.Errorf("3LCo CER(68 yr) = %v, want small (~1E-8 in the paper)", got)
	}
}

func TestOptimizePreservesEndpoints(t *testing.T) {
	for _, m := range []Mapping{FourLCOpt(), ThreeLCOpt()} {
		k := m.Levels()
		if m.Nominals[0] != 3 || m.Nominals[k-1] != 6 {
			t.Errorf("%s endpoints moved: %v", m.Name, m.Nominals)
		}
	}
}

func TestOptimizeImprovesUniformFive(t *testing.T) {
	m := Uniform(5)
	opt := DefaultOptimizeOptions()
	opt.Sweeps = 2
	o := Optimize(m, opt)
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	objBefore := m.QuadCER(215) + 1e-6*m.QuadCER(opt.SecondaryTime)
	objAfter := o.QuadCER(215) + 1e-6*o.QuadCER(opt.SecondaryTime)
	if objAfter > objBefore {
		t.Errorf("optimizer worsened objective: %v -> %v", objBefore, objAfter)
	}
}

func TestBitsPerCellIdeal(t *testing.T) {
	if got := FourLCNaive().BitsPerCellIdeal(); got != 2 {
		t.Errorf("4LC bits/cell = %v", got)
	}
	got := ThreeLCNaive().BitsPerCellIdeal()
	if math.Abs(got-1.584962500721156) > 1e-12 {
		t.Errorf("3LC bits/cell = %v", got)
	}
}

func TestAllReturnsFigure8Order(t *testing.T) {
	names := []string{"4LCn", "4LCs", "4LCo", "3LCn", "3LCo"}
	all := All()
	if len(all) != len(names) {
		t.Fatalf("All() returned %d mappings", len(all))
	}
	for i, m := range all {
		if m.Name != names[i] {
			t.Errorf("All()[%d] = %s, want %s", i, m.Name, names[i])
		}
	}
}

func TestUniformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uniform(1) did not panic")
		}
	}()
	Uniform(1)
}

// Property: State is the inverse of writing at any accepted resistance,
// immediately after write (no drift yet).
func TestStateInverseProperty(t *testing.T) {
	m := FourLCNaive()
	f := func(stateRaw uint8, offRaw uint16) bool {
		s := int(stateRaw) % 4
		// offset within the ±2.75σ acceptance window
		off := (float64(offRaw)/65535*2 - 1) * 2.75 / 6
		x := m.Nominals[s] + off
		return m.State(x) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkQuadCERFourLC(b *testing.B) {
	m := FourLCNaive()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += m.QuadCER(1020)
	}
	_ = sink
}

func BenchmarkQuadCERThreeLC(b *testing.B) {
	m := ThreeLCNaive()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += m.QuadCER(1e8)
	}
	_ = sink
}

func BenchmarkOptimizeThreeLC(b *testing.B) {
	opt := DefaultOptimizeOptions()
	opt.Sweeps = 1
	for i := 0; i < b.N; i++ {
		Optimize(ThreeLCNaive(), opt)
	}
}
