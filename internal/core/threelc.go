package core

import (
	"fmt"

	"repro/internal/bch"
	"repro/internal/bitvec"
	"repro/internal/encoding"
	"repro/internal/hsiao"
	"repro/internal/levels"
	"repro/internal/pcmarray"
	"repro/internal/wearout"
)

// ThreeLC block geometry (Sections 6.2–6.5): 171 data pairs + 6 spare
// pairs = 354 ternary cells, plus SLC-mode cells holding the
// transient-error check bits (10 for BCH-1; 11 for the Hsiao SEC-DED
// alternative the paper names as equivalent).
const threeLCPairCells = 354

// tecCodec abstracts the transient-error code: the paper's BCH-1 or the
// Hsiao SEC-DED equivalent (Section 6.3 treats them interchangeably;
// Hsiao buys guaranteed double-error detection for one extra check cell).
type tecCodec interface {
	ParityBits() int
	// EncodeInto overwrites parity with msg's check bits.
	EncodeInto(msg, parity bitvec.Vector)
	// DecodeOK corrects in place and reports whether the word is clean
	// or was fully corrected.
	DecodeOK(msg, parity bitvec.Vector) bool
}

type bchTEC struct{ c *bch.Code }

func (b bchTEC) ParityBits() int                  { return b.c.ParityBits() }
func (b bchTEC) EncodeInto(m, p bitvec.Vector)    { b.c.EncodeInto(m, p) }
func (b bchTEC) DecodeOK(m, p bitvec.Vector) bool { return b.c.Decode(m, p).OK }

type hsiaoTEC struct{ c *hsiao.Code }

func (h hsiaoTEC) ParityBits() int                  { return h.c.CheckBits }
func (h hsiaoTEC) EncodeInto(m, p bitvec.Vector)    { h.c.EncodeInto(m, p) }
func (h hsiaoTEC) DecodeOK(m, p bitvec.Vector) bool { return h.c.Decode(m, p).OK }

// ThreeLC is the paper's proposed architecture. See the package comment.
type ThreeLC struct {
	arr         *pcmarray.Array
	tec         tecCodec
	mas         wearout.MarkAndSpare
	parityCells int
	blocks      []threeLCBlock
	s           threeLCScratch
}

type threeLCBlock struct {
	marked  map[int]bool // INV-marked pair positions; nil until the first marking
	written bool
}

// threeLCScratch holds the buffers Write and Read reuse, so a write
// allocates nothing and a read allocates only the block it returns. An
// arch is driven by one goroutine at a time (see device.Device), and
// every stage overwrites its buffer in full before it is read.
type threeLCScratch struct {
	bits      bitvec.Vector // the 512 data bits
	cells     []int         // 342 3-ON-2 cell states
	dataPairs []int         // 171 logical pair values
	phys      []int         // 177 physical pair values
	states    []int         // 354 intended (write) or sensed (read) cell states
	msg       bitvec.Vector // the 708-bit TEC message
	parity    bitvec.Vector // the TEC check bits
}

// ThreeLCConfig customizes the architecture.
type ThreeLCConfig struct {
	// Mapping overrides the cell-level mapping; nil selects the paper's
	// optimal 3LCo mapping.
	Mapping *levels.Mapping
	// UseHsiao swaps the BCH-1 transient-error code for the Hsiao
	// SEC-DED equivalent: one more check cell, but double errors are
	// guaranteed to be detected rather than (usually) miscorrected.
	UseHsiao bool
	// Array configures the physical cell array.
	Array pcmarray.Options
}

// NewThreeLC allocates a 3LC device with the given number of 64-byte
// blocks.
func NewThreeLC(nBlocks int, cfg ThreeLCConfig) *ThreeLC {
	if nBlocks <= 0 {
		panic("core: non-positive block count")
	}
	m := levels.ThreeLCOpt()
	if cfg.Mapping != nil {
		m = *cfg.Mapping
	}
	if m.Levels() != 3 {
		panic("core: ThreeLC requires a three-level mapping")
	}
	var tec tecCodec = bchTEC{bch.Must(10, 1, 2*threeLCPairCells)} // BCH-1 over 708 bits
	if cfg.UseHsiao {
		tec = hsiaoTEC{hsiao.Must(2 * threeLCPairCells)}
	}
	mas := wearout.PaperDesign()
	a := &ThreeLC{
		tec:         tec,
		mas:         mas,
		parityCells: tec.ParityBits(),
		blocks:      make([]threeLCBlock, nBlocks),
		s: threeLCScratch{
			bits:      bitvec.New(BlockBits),
			cells:     make([]int, encoding.ThreeOnTwoCells(BlockBits)),
			dataPairs: make([]int, mas.DataPairs),
			phys:      make([]int, mas.TotalPairs()),
			states:    make([]int, threeLCPairCells),
			msg:       bitvec.New(2 * threeLCPairCells),
			parity:    bitvec.New(tec.ParityBits()),
		},
	}
	a.arr = pcmarray.New(m, nBlocks*a.CellsPerBlock(), cfg.Array)
	return a
}

// Name implements Arch.
func (t *ThreeLC) Name() string {
	if _, ok := t.tec.(hsiaoTEC); ok {
		return "3LC (3-ON-2 + Hsiao SEC-DED + mark-and-spare)"
	}
	return "3LC (3-ON-2 + BCH-1 + mark-and-spare)"
}

// Blocks implements Arch.
func (t *ThreeLC) Blocks() int { return len(t.blocks) }

// CellsPerBlock implements Arch.
func (t *ThreeLC) CellsPerBlock() int { return threeLCPairCells + t.parityCells }

// Density implements Arch.
func (t *ThreeLC) Density() float64 { return ThreeLCDensity(t.mas.SparePairs) }

// Array implements Arch.
func (t *ThreeLC) Array() *pcmarray.Array { return t.arr }

// base returns the first cell index of a block.
func (t *ThreeLC) base(block int) int { return block * t.CellsPerBlock() }

// Write implements Arch: 3-ON-2 encode, mark-and-spare layout, pair
// writes with wearout handling, then BCH-1 parity over the intended
// 708-bit TEC message, stored in SLC mode.
func (t *ThreeLC) Write(block int, data []byte) error {
	if err := checkBlockArgs(block, len(t.blocks), data, true); err != nil {
		return err
	}
	blk := &t.blocks[block]
	s := &t.s
	s.bits.SetBytes(data)
	encoding.EncodeThreeOnTwoInto(s.cells, s.bits)
	pairsFromCells(s.dataPairs, s.cells)

	// Wearout can surface during this write; retry the layout after each
	// new marking until it sticks or capacity is exhausted.
	for attempt := 0; attempt <= t.mas.SparePairs+1; attempt++ {
		if err := t.mas.LayoutInto(s.phys, s.dataPairs, blk.marked); err != nil {
			return ErrWornOut
		}
		newFailure := false
		for p, v := range s.phys {
			c1, c2 := pairStates(v)
			for k, state := range []int{c1, c2} {
				cellIdx := t.base(block) + 2*p + k
				if t.arr.Write(cellIdx, state) {
					continue
				}
				// Verify failure: a wearout event. Mark the whole pair
				// INV (Section 6.4) and retry the layout.
				if !blk.marked[p] {
					if blk.marked == nil {
						blk.marked = map[int]bool{}
					}
					blk.marked[p] = true
					newFailure = true
				}
				t.markPairINV(block, p)
			}
		}
		if newFailure {
			if len(blk.marked) > t.mas.SparePairs {
				return ErrWornOut
			}
			continue
		}
		// All pairs written. Build the intended TEC message — marked
		// pairs count as [S4, S4] even when a stuck-set cell physically
		// cannot reach S4; BCH-1 hides such a cell at read time.
		for p, v := range s.phys {
			s.states[2*p], s.states[2*p+1] = pairStates(v)
		}
		encoding.TECMessage3Into(s.msg, s.states)
		t.tec.EncodeInto(s.msg, s.parity)
		t.writeParity(block, s.parity)
		blk.written = true
		return nil
	}
	return ErrWornOut
}

// markPairINV drives both cells of a pair to S4, reviving stuck-set
// cells where possible.
func (t *ThreeLC) markPairINV(block, pair int) {
	for k := 0; k < 2; k++ {
		cellIdx := t.base(block) + 2*pair + k
		if t.arr.Write(cellIdx, 2) {
			continue
		}
		if t.arr.Mode(cellIdx) == wearout.StuckSet {
			if t.arr.Revive(cellIdx) {
				continue
			}
			// Unrevivable: park the cell at S2, whose TEC pattern (01)
			// is one bit from the intended S4 (11), so the single-bit
			// TEC hides it at read time (Section 6.4) — and upward
			// drift only moves it toward S4.
			t.arr.Write(cellIdx, 1)
		}
	}
}

// writeParity stores the 10 BCH-1 check bits in SLC mode: bit 0 as S1,
// bit 1 as S4 — the two extreme states, whose drift error rate is
// negligible (Section 6.3: check bits are stored "1 bit per cell to
// prevent drift errors on the check bits").
func (t *ThreeLC) writeParity(block int, parity bitvec.Vector) {
	for i := 0; i < t.parityCells; i++ {
		state := 0
		if parity.Get(i) != 0 {
			state = 2
		}
		cellIdx := t.base(block) + threeLCPairCells + i
		if t.arr.Write(cellIdx, state) {
			continue
		}
		// A worn parity cell: try revival toward S4 (correct when the
		// bit is 1); otherwise the BCH-1 budget absorbs it.
		if state == 2 && t.arr.Mode(cellIdx) == wearout.StuckSet {
			t.arr.Revive(cellIdx)
		}
	}
}

// Read implements Arch, in Figure 9's stage order.
func (t *ThreeLC) Read(block int) ([]byte, error) {
	if err := checkBlockArgs(block, len(t.blocks), nil, false); err != nil {
		return nil, err
	}
	if !t.blocks[block].written {
		return nil, fmt.Errorf("core: block %d never written", block)
	}
	// Stage 1: PCM array read.
	s := &t.s
	for i := range s.states {
		s.states[i] = t.arr.Sense(t.base(block) + i)
	}
	for i := 0; i < t.parityCells; i++ {
		var bit uint
		if t.arr.Sense(t.base(block)+threeLCPairCells+i) == 2 {
			bit = 1
		}
		s.parity.Set(i, bit)
	}

	// Stage 2: transient error correction (BCH-1 over the 2-bit-per-cell
	// interpretation). Correction must run before mark-and-spare so a
	// drift error cannot masquerade as (or hide) an INV mark.
	encoding.TECMessage3Into(s.msg, s.states)
	uncorrectable := !t.tec.DecodeOK(s.msg, s.parity)
	if encoding.CellsFromTECMessage3Into(s.states, s.msg) > 0 {
		uncorrectable = true
	}

	// Stage 3: hard error correction (mark-and-spare).
	pairsFromCells(s.phys, s.states)
	if _, err := t.mas.CorrectInto(s.dataPairs, s.phys); err != nil {
		return nil, ErrWornOut
	}

	// Stage 4: symbol decode (3-ON-2 back to bits).
	bitsFromPairs(s.bits, s.dataPairs)
	out := s.bits.Bytes()
	if uncorrectable {
		return out, ErrUncorrectable
	}
	return out, nil
}

// Scrub implements Arch: read, correct, re-write (restoring nominal
// resistance), propagating uncorrectable errors.
func (t *ThreeLC) Scrub(block int) error {
	data, err := t.Read(block)
	if err != nil && err != ErrUncorrectable {
		return err
	}
	if werr := t.Write(block, data); werr != nil {
		return werr
	}
	return err
}

// MarkedPairs returns the number of INV-marked pairs in a block (worn
// capacity consumed).
func (t *ThreeLC) MarkedPairs(block int) int { return len(t.blocks[block].marked) }

// pairsFromCells folds cell states into the pair values 0..8 of pairs,
// which holds half as many entries as cells.
func pairsFromCells(pairs, cells []int) {
	for p := range pairs {
		pairs[p] = encoding.PairIndex(cells[2*p], cells[2*p+1])
	}
}

// pairStates unfolds a pair value 0..8 into two ternary states.
func pairStates(v int) (int, int) { return v / 3, v % 3 }

// bitsFromPairs reassembles data bits from non-INV pair values into out,
// overwriting every bit: pairs must carry at least out.Len() bits.
func bitsFromPairs(out bitvec.Vector, pairs []int) {
	if 3*len(pairs) < out.Len() {
		panic("core: too few pairs for the data bits")
	}
	for p, v := range pairs {
		for b := 0; b < 3; b++ {
			if i := 3*p + b; i < out.Len() {
				out.Set(i, uint(v>>b)&1)
			}
		}
	}
}
