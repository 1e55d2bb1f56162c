// Package pcmarray simulates a physical array of multilevel phase-change
// memory cells at the resistance level: iterative write-and-verify
// programming (modeled by its acceptance distribution), per-cell drift
// exponents, sensing against the mapping's thresholds at an arbitrary
// simulation time, wear counting with lognormally distributed endurance,
// and the stuck-reset/stuck-set failure modes with reverse-current
// revival (Sections 2 and 6.4 of the paper).
//
// The array is the substrate under internal/core's architecture
// pipelines and the examples; everything above it sees only written and
// sensed state indices.
package pcmarray

import (
	"fmt"
	"math"

	"repro/internal/drift"
	"repro/internal/levels"
	"repro/internal/rng"
	"repro/internal/wearout"
)

// Options configures an Array.
type Options struct {
	// Seed drives all stochastic behaviour; a given seed reproduces the
	// exact same cell lifetimes and drift trajectories.
	Seed uint64
	// EnduranceMean is the mean write endurance in cycles. The paper
	// quotes 1E5 for MLC-PCM vs 1E8 for SLC (Section 6.4). Zero disables
	// wearout entirely.
	EnduranceMean float64
	// EnduranceSigma is the lognormal sigma of per-cell endurance
	// (process variation); 0.3 is a reasonable default.
	EnduranceSigma float64
	// ReviveProbability is the chance a stuck-set cell can be forced to
	// the top state by reverse current (Section 6.4 after Goux et al.).
	ReviveProbability float64
}

// DefaultOptions returns MLC endurance of 1E5 cycles and 95% revival.
func DefaultOptions(seed uint64) Options {
	return Options{
		Seed:              seed,
		EnduranceMean:     1e5,
		EnduranceSigma:    0.3,
		ReviveProbability: 0.95,
	}
}

// cell is the physical state of one PCM cell, packed into 48 bytes: a
// served device holds hundreds of cells per block, so the record size is
// most of a node's heap. The analog fields stay float64, so packing
// changes no sampled value or sense result. Endurance is capped at
// MaxInt32 and wear saturates, so uint32 keeps "wear > endurance" exact;
// state and mode are small enumerations.
type cell struct {
	logR0     float64 // written log10 resistance
	alpha     float64 // drift exponent
	alpha2    float64 // post-switch exponent (3LC rate switch)
	writeTime float64 // simulation time of the accepted write, seconds
	wear      uint32
	endurance uint32
	state     uint8 // state accepted by write-and-verify
	mode      uint8 // a wearout.FailureMode
	written   bool
}

// Array is a drift-accurate PCM cell array under a level mapping.
type Array struct {
	mapping levels.Mapping
	specs   []drift.StateSpec
	cells   []cell
	r       *rng.Rand
	now     float64
	opt     Options

	// Writes and SenseOps count device operations for energy accounting.
	Writes   int64
	SenseOps int64
}

// New allocates an array of n cells using the mapping's drift behaviour.
func New(mapping levels.Mapping, n int, opt Options) *Array {
	if err := mapping.Validate(); err != nil {
		panic(fmt.Sprintf("pcmarray: %v", err))
	}
	if n <= 0 {
		panic("pcmarray: non-positive cell count")
	}
	if mapping.Levels() > math.MaxUint8+1 {
		panic(fmt.Sprintf("pcmarray: %d levels do not fit a cell's state byte", mapping.Levels()))
	}
	a := &Array{
		mapping: mapping,
		specs:   mapping.Specs(),
		cells:   make([]cell, n),
		r:       rng.New(opt.Seed),
		opt:     opt,
	}
	for i := range a.cells {
		a.cells[i].endurance = a.sampleEndurance()
		a.cells[i].mode = uint8(wearout.Healthy)
	}
	return a
}

func (a *Array) sampleEndurance() uint32 {
	if a.opt.EnduranceMean <= 0 {
		return math.MaxInt32
	}
	// Lognormal around the mean: exp(N(ln(mean) - σ²/2, σ)).
	s := a.opt.EnduranceSigma
	mu := math.Log(a.opt.EnduranceMean) - s*s/2
	v := math.Exp(a.r.Normal(mu, s))
	if v < 1 {
		v = 1
	}
	if v > math.MaxInt32 {
		return math.MaxInt32
	}
	return uint32(v)
}

// Len returns the cell count.
func (a *Array) Len() int { return len(a.cells) }

// Levels returns the number of states per cell.
func (a *Array) Levels() int { return a.mapping.Levels() }

// Mapping returns the level mapping in force.
func (a *Array) Mapping() levels.Mapping { return a.mapping }

// Now returns the current simulation time in seconds.
func (a *Array) Now() float64 { return a.now }

// Advance moves the simulation clock forward by dt seconds, aging every
// written cell's resistance (drift is evaluated lazily at sense time, so
// this is O(1)).
func (a *Array) Advance(dt float64) {
	if dt < 0 {
		panic("pcmarray: negative time step")
	}
	a.now += dt
}

// topState returns the highest state index.
func (a *Array) topState() int { return a.mapping.Levels() - 1 }

// Write programs cell i to the given state through write-and-verify.
// It returns ok=false when the cell has worn out and cannot be verified
// at the target state; the caller (the architecture layer) is then
// responsible for wearout tolerance. Writing a worn cell to a state it
// happens to be stuck at still verifies, as in real ECP/mark-and-spare
// flows.
func (a *Array) Write(i int, state int) (ok bool) {
	c := &a.cells[i]
	if state < 0 || state > a.topState() {
		panic(fmt.Sprintf("pcmarray: state %d out of range", state))
	}
	a.Writes++
	mode := wearout.FailureMode(c.mode)
	if mode == wearout.Healthy {
		if c.wear < math.MaxUint32 {
			c.wear++
		}
		if c.wear > c.endurance {
			// The cell dies on this write: half stuck-reset, half
			// stuck-set (Section 6.4's two failure modes).
			if a.r.Float64() < 0.5 {
				mode = wearout.StuckReset
			} else {
				mode = wearout.StuckSet
			}
			c.mode = uint8(mode)
		}
	}
	switch mode {
	case wearout.StuckReset, wearout.StuckSetRevived:
		// Pinned at top state: the write verifies only if that was the
		// target.
		c.state = uint8(a.topState())
		c.written = true
		c.writeTime = a.now
		c.logR0 = a.specs[a.topState()].Nominal // stuck cells do not drift across thresholds
		c.alpha, c.alpha2 = 0, 0
		return state == a.topState()
	case wearout.StuckSet:
		if state == a.topState() {
			// Cannot RESET to the highest state.
			return false
		}
		// Stuck-set cells still program to lower states (the SET path
		// works); fall through to a normal write.
	}
	spec := a.specs[state]
	c.state = uint8(state)
	c.written = true
	c.writeTime = a.now
	c.logR0 = spec.SampleWrite(a.r)
	c.alpha = a.r.Normal(spec.Alpha.Mu, spec.Alpha.Sigma)
	if spec.Switch != nil {
		c.alpha2 = spec.SampleAlpha2(a.r, c.alpha)
	} else {
		c.alpha2 = 0
	}
	return true
}

// Sense reads cell i's state at the current simulation time, applying
// drift since the last write. Unwritten cells sense as the top state
// (fully amorphous as fabricated).
func (a *Array) Sense(i int) int {
	c := &a.cells[i]
	a.SenseOps++
	if !c.written {
		return a.topState()
	}
	if s, pinned := wearout.FailureMode(c.mode).Pinned(a.topState()); pinned {
		return s
	}
	elapsed := a.now - c.writeTime
	if elapsed < drift.T0 {
		elapsed = drift.T0
	}
	spec := a.specs[c.state]
	logR := spec.LogRAt(c.logR0, c.alpha, c.alpha2, elapsed)
	return a.mapping.State(logR)
}

// LogR returns the analog log-resistance of cell i at the current time
// (used by analog decoders such as permutation coding and by tests).
func (a *Array) LogR(i int) float64 {
	c := &a.cells[i]
	if !c.written {
		return a.specs[a.topState()].Nominal
	}
	if _, pinned := wearout.FailureMode(c.mode).Pinned(a.topState()); pinned {
		return a.specs[a.topState()].Nominal
	}
	elapsed := a.now - c.writeTime
	if elapsed < drift.T0 {
		elapsed = drift.T0
	}
	spec := a.specs[c.state]
	return spec.LogRAt(c.logR0, c.alpha, c.alpha2, elapsed)
}

// Mode returns cell i's failure mode.
func (a *Array) Mode(i int) wearout.FailureMode { return wearout.FailureMode(a.cells[i].mode) }

// Wear returns cell i's accumulated write count.
func (a *Array) Wear(i int) int { return int(a.cells[i].wear) }

// InjectFailure forces a failure mode onto cell i (for fault-injection
// tests and experiments).
func (a *Array) InjectFailure(i int, mode wearout.FailureMode) {
	if mode < 0 || mode > math.MaxUint8 {
		panic(fmt.Sprintf("pcmarray: failure mode %d out of range", mode))
	}
	a.cells[i].mode = uint8(mode)
	if s, pinned := mode.Pinned(a.topState()); pinned {
		a.cells[i].state = uint8(s)
		a.cells[i].written = true
	}
}

// SetEndurance overrides cell i's endurance budget (fault injection):
// the cell verifies cycles more writes in total, then fails on the next.
// Budgets are clamped to [0, MaxUint32].
func (a *Array) SetEndurance(i, cycles int) {
	a.cells[i].endurance = uint32(min(uint64(max(cycles, 0)), math.MaxUint32))
}

// Revive attempts to force a stuck-set cell into the top state by a
// reverse current pulse. It reports success; on success the cell behaves
// as permanently top-state.
func (a *Array) Revive(i int) bool {
	c := &a.cells[i]
	if wearout.FailureMode(c.mode) != wearout.StuckSet {
		return false
	}
	if a.r.Float64() < a.opt.ReviveProbability {
		c.mode = uint8(wearout.StuckSetRevived)
		c.state = uint8(a.topState())
		c.written = true
		return true
	}
	return false
}
