// Package levels defines the cell-level state mappings studied in the
// paper — nominal log-resistance values, inter-state thresholds, and state
// occurrence probabilities — and the constrained optimizer that produces
// the "optimal mapping" designs (Sections 5.1 and 5.2, Figures 1, 6, 7).
// As in the paper, the optimal mappings are solved once, offline: 4LCo
// and 3LCo are frozen optimizer output, and a test reruns Optimize to
// check that they still agree.
//
// Five mappings reproduce the paper's design points:
//
//	4LCn  naive four-level cell: nominals 10^3..10^6 Ω, midpoint thresholds
//	4LCs  4LCn plus smart encoding (skewed state probabilities 35/15/15/35)
//	4LCo  optimal mapping plus smart encoding
//	3LCn  three-level cell: S3 removed from the naive 4LC mapping
//	3LCo  optimally mapped three-level cell (the paper's proposal)
//
// The generalized constructors (Uniform, Optimize) also support the
// paper's Section 8 extension to five- and six-level cells.
package levels

import (
	"fmt"
	"math"

	"repro/internal/drift"
	"repro/internal/stats"
)

// Delta is the paper's guard band δ between a threshold and a distribution
// tail: 0.05 σ, covering sense-amplifier noise and slow downward drift.
const Delta = 0.05 * drift.SigmaLogR

// Margin is the minimum spacing between a state's nominal value and an
// adjacent threshold: the write window plus the guard band.
const Margin = drift.WriteWindow*drift.SigmaLogR + Delta

// RateSwitchLogR is where the conservative 3LC drift-rate increase kicks
// in: 10^4.5 Ω, the original τ2 of the naive four-level mapping.
const RateSwitchLogR = 4.5

// Mapping is a complete level design: k states with nominal log10
// resistances, k-1 thresholds, occurrence probabilities, and the Table 1
// drift-parameter index for each state. RateSwitchAt > 0 enables the
// piecewise drift-rate increase (3LC designs).
type Mapping struct {
	Name         string
	Nominals     []float64
	Thresholds   []float64
	Probs        []float64
	AlphaIdx     []int
	RateSwitchAt float64
	// SwitchMode selects how the post-switch drift exponent relates to
	// the cell's pre-switch exponent (zero value: independent resample,
	// the most conservative reading — see drift.SwitchMode).
	SwitchMode drift.SwitchMode
	// Sigma is the per-state written log-resistance standard deviation;
	// zero means the paper's default of 1/6. Five- and six-level cells
	// require a tighter write distribution to be feasible at all
	// (Section 8: "we can best improve storage density by reducing the
	// variability of the log-resistance of written cells").
	Sigma float64
}

// sigma returns the mapping's write standard deviation.
func (m Mapping) sigma() float64 {
	if m.Sigma > 0 {
		return m.Sigma
	}
	return drift.SigmaLogR
}

// SigmaValue returns the effective write standard deviation (the default
// 1/6 when the Sigma field is zero).
func (m Mapping) SigmaValue() float64 { return m.sigma() }

// MarginWidth returns the minimum nominal-to-threshold spacing for this
// mapping: the ±2.75σ write window plus the 0.05σ guard band.
func (m Mapping) MarginWidth() float64 {
	return (drift.WriteWindow + 0.05) * m.sigma()
}

// Levels returns the number of states.
func (m Mapping) Levels() int { return len(m.Nominals) }

// BitsPerCellIdeal returns log2(levels), the information-theoretic
// capacity of one cell under this mapping.
func (m Mapping) BitsPerCellIdeal() float64 {
	return math.Log2(float64(m.Levels()))
}

// Validate checks structural consistency and the ordering/margin
// constraints of Section 5.1.
func (m Mapping) Validate() error {
	k := m.Levels()
	if k < 2 {
		return fmt.Errorf("levels: mapping %q has %d states", m.Name, k)
	}
	if len(m.Thresholds) != k-1 || len(m.Probs) != k || len(m.AlphaIdx) != k {
		return fmt.Errorf("levels: mapping %q has inconsistent slice lengths", m.Name)
	}
	sum := 0.0
	for _, p := range m.Probs {
		if p < 0 {
			return fmt.Errorf("levels: mapping %q has negative probability", m.Name)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("levels: mapping %q probabilities sum to %v", m.Name, sum)
	}
	for i := 0; i < k-1; i++ {
		lo := m.Nominals[i] + m.MarginWidth()
		hi := m.Nominals[i+1] - m.MarginWidth()
		if m.Thresholds[i] < lo-1e-9 || m.Thresholds[i] > hi+1e-9 {
			return fmt.Errorf("levels: mapping %q threshold %d = %v outside [%v, %v]",
				m.Name, i, m.Thresholds[i], lo, hi)
		}
	}
	for i, idx := range m.AlphaIdx {
		if idx < 0 || idx >= len(drift.Table1) {
			return fmt.Errorf("levels: mapping %q state %d has alpha index %d", m.Name, i, idx)
		}
	}
	return nil
}

// Specs expands the mapping into per-state drift specifications.
func (m Mapping) Specs() []drift.StateSpec {
	k := m.Levels()
	specs := make([]drift.StateSpec, k)
	for i := 0; i < k; i++ {
		upper := math.Inf(1)
		if i < k-1 {
			upper = m.Thresholds[i]
		}
		s := drift.StateSpec{
			Nominal: m.Nominals[i],
			Sigma:   m.sigma(),
			Upper:   upper,
			Alpha:   drift.Table1[m.AlphaIdx[i]].Alpha,
		}
		if m.RateSwitchAt > 0 && !math.IsInf(upper, 1) && upper > m.RateSwitchAt {
			// Past the switch resistance the cell is in S3's resistance
			// regime; the paper conservatively applies S3's µα = 0.06.
			// The switch attaches whenever the state's error path crosses
			// the switch resistance — regardless of where the nominal
			// sits — so the optimizer cannot dodge the conservative
			// regime by shifting a nominal past 10^4.5 Ω.
			s.Switch = &drift.RateSwitch{AtLogR: m.RateSwitchAt, Alpha: drift.Table1[2].Alpha, Mode: m.SwitchMode}
		}
		specs[i] = s
	}
	return specs
}

// QuadCER returns the mapping's probability-weighted cell error rate at
// time t (seconds since write), by deterministic quadrature.
func (m Mapping) QuadCER(t float64) float64 {
	return drift.QuadCERMix(m.Specs(), m.Probs, t)
}

// MCCERCurve returns the Monte Carlo cell-error-rate curve on the given
// ascending time grid.
func (m Mapping) MCCERCurve(times []float64, samples int64, seed uint64, workers int) drift.MCResult {
	return drift.MCCERCurve(m.Specs(), m.Probs, times, samples, seed, workers)
}

// State reads back the state index for a sensed log10 resistance.
func (m Mapping) State(logR float64) int {
	for i, th := range m.Thresholds {
		if logR < th {
			return i
		}
	}
	return m.Levels() - 1
}

// uniformProbs returns equal occurrence probabilities for k states.
func uniformProbs(k int) []float64 {
	p := make([]float64, k)
	for i := range p {
		p[i] = 1 / float64(k)
	}
	return p
}

// FourLCNaive returns 4LCn: nominals at 10^3..10^6 Ω, evenly spaced
// thresholds, equal state probabilities (Figure 1).
func FourLCNaive() Mapping {
	return Mapping{
		Name:       "4LCn",
		Nominals:   []float64{3, 4, 5, 6},
		Thresholds: []float64{3.5, 4.5, 5.5},
		Probs:      uniformProbs(4),
		AlphaIdx:   []int{0, 1, 2, 3},
	}
}

// FourLCSmart returns 4LCs: the naive geometry with the paper's
// (optimistic) smart-encoding state skew of 35% for S1/S4 and 15% for the
// vulnerable S2/S3.
func FourLCSmart() Mapping {
	m := FourLCNaive()
	m.Name = "4LCs"
	m.Probs = []float64{0.35, 0.15, 0.15, 0.35}
	return m
}

// ThreeLCNaive returns 3LCn: S3 removed from the naive mapping. The three
// states keep the paper's names S1, S2, S4; the region above the original
// τ3 = 10^5.5 Ω reads as S4, so S2 gains a wide drift margin. The
// conservative drift-rate switch at 10^4.5 Ω is enabled.
func ThreeLCNaive() Mapping {
	return Mapping{
		Name:         "3LCn",
		Nominals:     []float64{3, 4, 6},
		Thresholds:   []float64{3.5, 5.5},
		Probs:        uniformProbs(3),
		AlphaIdx:     []int{0, 1, 3},
		RateSwitchAt: RateSwitchLogR,
	}
}

// Uniform returns a k-level mapping with nominals evenly spaced over
// [10^3, 10^6] Ω, midpoint thresholds, equal probabilities, and Table 1
// drift parameters assigned by resistance neighbourhood — the starting
// point for the Section 8 generalization to five- and six-level cells.
func Uniform(k int) Mapping {
	if k < 2 || k > 8 {
		panic("levels: Uniform supports 2..8 levels")
	}
	nom := make([]float64, k)
	for i := range nom {
		nom[i] = 3 + 3*float64(i)/float64(k-1)
	}
	// With the default σ = 1/6 the margin constraints are infeasible for
	// five or more levels (2·(2.75+0.05)σ ≈ 0.93 exceeds the 0.75 state
	// spacing). Per the paper's Section 8 discussion, higher density
	// requires a tighter write distribution: scale σ so the margins fit
	// with slack.
	sigma := 0.0
	spacing := 3 / float64(k-1)
	if spacing < 2*(drift.WriteWindow+0.05)*drift.SigmaLogR*1.2 {
		sigma = spacing / (2 * (drift.WriteWindow + 0.05) * 1.2)
	}
	th := make([]float64, k-1)
	idx := make([]int, k)
	for i := range th {
		th[i] = (nom[i] + nom[i+1]) / 2
	}
	for i := range idx {
		a := drift.AlphaForLevel(nom[i])
		for j, e := range drift.Table1 {
			if e.Alpha == a {
				idx[i] = j
			}
		}
	}
	return Mapping{
		Name:       fmt.Sprintf("%dLCu", k),
		Nominals:   nom,
		Thresholds: th,
		Probs:      uniformProbs(k),
		AlphaIdx:   idx,
		Sigma:      sigma,
	}
}

// OptimizeOptions controls the constrained mapping optimizer.
type OptimizeOptions struct {
	// ObjectiveTime is the paper's CER evaluation time: 215 s.
	ObjectiveTime float64
	// SecondaryTime and SecondaryWeight add a small retention-horizon term
	// to the objective. The paper's single-time objective is flat (zero
	// under any finite sampling) over much of the 3LC feasible region; the
	// secondary term breaks those ties in favour of the longest retention,
	// which is what the paper's published 3LCo achieves. For 4LC the term
	// is negligible relative to the primary.
	SecondaryTime   float64
	SecondaryWeight float64
	// Sweeps is the number of coordinate-descent passes.
	Sweeps int
}

// DefaultOptimizeOptions mirror Section 5.1: objective CER at t = 215 s,
// with a ten-year secondary horizon at weight 1e-6.
func DefaultOptimizeOptions() OptimizeOptions {
	return OptimizeOptions{
		ObjectiveTime:   215,
		SecondaryTime:   10 * 365.25 * 86400,
		SecondaryWeight: 1e-6,
		Sweeps:          8,
	}
}

// Optimize minimizes the mapping's cell error rate over the interior
// nominal values and all thresholds, holding the first and last nominals
// fixed (the fully crystalline and amorphous resistances are set by
// process technology). Constraints follow Section 5.1:
//
//	µi + 2.75σ + δ  <  τi  <  µ(i+1) − 2.75σ − δ
//
// The method is projected coordinate descent with golden-section line
// search on each coordinate, using the deterministic quadrature CER, so
// the result is stable across runs.
func Optimize(m Mapping, opt OptimizeOptions) Mapping {
	out := m
	out.Nominals = append([]float64(nil), m.Nominals...)
	out.Thresholds = append([]float64(nil), m.Thresholds...)
	out.Name = m.Name + "-opt"

	objective := func(c Mapping) float64 {
		v := c.QuadCER(opt.ObjectiveTime)
		if opt.SecondaryWeight > 0 {
			v += opt.SecondaryWeight * c.QuadCER(opt.SecondaryTime)
		}
		return v
	}

	k := out.Levels()
	for sweep := 0; sweep < opt.Sweeps; sweep++ {
		improved := false
		// Interior nominals: µ2 .. µ(k-1).
		for i := 1; i < k-1; i++ {
			lo := out.Thresholds[i-1] + out.MarginWidth()
			hi := out.Thresholds[i] - out.MarginWidth()
			improved = goldenMin(&out.Nominals[i], lo, hi, func() float64 { return objective(out) }) || improved
		}
		// Thresholds: τ1 .. τ(k-1).
		for i := 0; i < k-1; i++ {
			lo := out.Nominals[i] + out.MarginWidth()
			hi := out.Nominals[i+1] - out.MarginWidth()
			improved = goldenMin(&out.Thresholds[i], lo, hi, func() float64 { return objective(out) }) || improved
		}
		if !improved {
			break
		}
	}
	return out
}

// goldenMin minimizes f over [lo, hi] by golden-section search on the
// coordinate pointed to by x, accepting the result only if it improves on
// the current value. Returns whether an improvement was made.
func goldenMin(x *float64, lo, hi float64, f func() float64) bool {
	if hi <= lo {
		return false
	}
	const phi = 0.6180339887498949
	orig := *x
	best := f()

	eval := func(v float64) float64 {
		*x = v
		return f()
	}
	a, b := lo, hi
	c := b - phi*(b-a)
	d := a + phi*(b-a)
	fc, fd := eval(c), eval(d)
	for i := 0; i < 60 && (b-a) > 1e-6; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - phi*(b-a)
			fc = eval(c)
		} else {
			a, c, fc = c, d, fd
			d = a + phi*(b-a)
			fd = eval(d)
		}
	}
	cand := (a + b) / 2
	if fCand := eval(cand); fCand < best {
		*x = cand
		return math.Abs(cand-orig) > 1e-9
	}
	*x = orig
	return false
}

// FourLCOpt returns 4LCo: the optimally mapped four-level cell with smart
// encoding (Section 5.1, Figure 6). As on the paper's chip, the mapping
// is a design-time constant: the nominals and thresholds below are the
// output of Optimize(FourLCSmart(), DefaultOptimizeOptions()), frozen as
// literals and checked against a fresh optimizer run by
// TestFrozenMappingsMatchOptimizer. Every call returns fresh slices.
func FourLCOpt() Mapping {
	m := FourLCSmart()
	m.Name = "4LCo"
	m.Nominals = []float64{3, 3.9666669881625225, 4.9666669881625225, 6}
	m.Thresholds = []float64{3.5, 4.5, 5.5333328510910995}
	return m
}

// ThreeLCOpt returns 3LCo: the paper's proposed optimally mapped
// three-level cell (Section 5.2, Figure 7). Like FourLCOpt, it holds the
// frozen output of Optimize(ThreeLCNaive(), DefaultOptimizeOptions()) in
// fresh slices.
func ThreeLCOpt() Mapping {
	m := ThreeLCNaive()
	m.Name = "3LCo"
	m.Nominals = []float64{3, 3.9666671304948786, 6}
	m.Thresholds = []float64{3.5, 5.533332855010691}
	return m
}

// All returns the five mappings of Figure 8 in presentation order.
func All() []Mapping {
	return []Mapping{FourLCNaive(), FourLCSmart(), FourLCOpt(), ThreeLCNaive(), ThreeLCOpt()}
}

// PDF evaluates the mixture probability density of written log10
// resistance under the mapping — the curves drawn in Figures 1, 6 and 7.
func (m Mapping) PDF(logR float64) float64 {
	sum := 0.0
	for i, spec := range m.Specs() {
		if m.Probs[i] == 0 {
			continue
		}
		tn := stats.TruncNorm{
			Mean: spec.Nominal, SD: spec.Sigma,
			Lo: spec.WriteLow(), Hi: spec.WriteHigh(),
		}
		sum += m.Probs[i] * tn.PDF(logR)
	}
	return sum
}
