package core

import (
	"fmt"

	"repro/internal/bch"
	"repro/internal/bitvec"
	"repro/internal/encoding"
	"repro/internal/levels"
	"repro/internal/pcmarray"
	"repro/internal/wearout"
)

// FourLC block geometry (Section 6.6, Table 3): 256 Gray-coded data
// cells, 50 cells of BCH-10 check bits (100 bits at 2 bits/cell), and an
// ECP-6 table accounted at 31 cells (Figure 14). The ECP table contents
// are held as metadata; its cell cost enters the density accounting.
const (
	fourLCDataCells   = 256
	fourLCParityCells = 50
	fourLCBlockCells  = fourLCDataCells + fourLCParityCells
)

// FourLC is the optimized four-level-cell baseline (4LCo).
type FourLC struct {
	arr    *pcmarray.Array
	tec    *bch.Code
	ecp    wearout.ECP
	blocks []fourLCBlock
	s      fourLCScratch
}

type fourLCBlock struct {
	entries []wearout.Entry
	written bool
}

// fourLCScratch holds the buffers Write and Read reuse, so a write
// without verify failures allocates nothing and a read allocates only
// the block it returns. An arch is driven by one goroutine at a time
// (see device.Device), and every stage overwrites its buffer in full
// before it is read.
type fourLCScratch struct {
	bits     bitvec.Vector // the 512 data bits, which are also the BCH-10 message
	states   []int         // 256 data-cell states: Gray-encoded (write) or sensed (read)
	parity   bitvec.Vector // the 100 BCH-10 check bits
	failures map[int]int   // this write's verify failures: cell → intended state
}

// FourLCConfig customizes the architecture.
type FourLCConfig struct {
	// Mapping overrides the cell-level mapping; nil selects the paper's
	// optimal 4LCo mapping.
	Mapping *levels.Mapping
	// Array configures the physical cell array.
	Array pcmarray.Options
}

// NewFourLC allocates a 4LCo device with the given number of 64-byte
// blocks.
func NewFourLC(nBlocks int, cfg FourLCConfig) *FourLC {
	if nBlocks <= 0 {
		panic("core: non-positive block count")
	}
	m := levels.FourLCOpt()
	if cfg.Mapping != nil {
		m = *cfg.Mapping
	}
	if m.Levels() != 4 {
		panic("core: FourLC requires a four-level mapping")
	}
	tec := bch.Must(10, 10, BlockBits) // BCH-10 over 512 bits
	return &FourLC{
		arr:    pcmarray.New(m, nBlocks*fourLCBlockCells, cfg.Array),
		tec:    tec,
		ecp:    wearout.MLCECP(),
		blocks: make([]fourLCBlock, nBlocks),
		s: fourLCScratch{
			bits:     bitvec.New(BlockBits),
			states:   make([]int, fourLCDataCells),
			parity:   bitvec.New(tec.ParityBits()),
			failures: map[int]int{},
		},
	}
}

// Name implements Arch.
func (f *FourLC) Name() string { return "4LCo (Gray + BCH-10 + ECP-6)" }

// Blocks implements Arch.
func (f *FourLC) Blocks() int { return len(f.blocks) }

// CellsPerBlock implements Arch (array cells plus the ECP table).
func (f *FourLC) CellsPerBlock() int { return fourLCBlockCells + f.ecp.CellOverhead() }

// Density implements Arch.
func (f *FourLC) Density() float64 { return FourLCDensity(f.ecp.Entries) }

// Array implements Arch.
func (f *FourLC) Array() *pcmarray.Array { return f.arr }

func (f *FourLC) base(block int) int { return block * fourLCBlockCells }

// Write implements Arch: Gray-encode, program cells, allocate ECP
// entries for verify failures, then BCH-10 parity over the post-write
// (actual) cell contents so that TEC runs before HEC at read time, per
// Figure 9's stage order.
func (f *FourLC) Write(block int, data []byte) error {
	if err := checkBlockArgs(block, len(f.blocks), data, true); err != nil {
		return err
	}
	blk := &f.blocks[block]
	s := &f.s
	s.bits.SetBytes(data)
	encoding.EncodeGray4Into(s.states, s.bits)

	clear(s.failures)
	for i, state := range s.states {
		if f.arr.Write(f.base(block)+i, state) {
			continue
		}
		s.failures[i] = state
	}
	entries, err := f.ecp.Allocate(s.failures)
	if err != nil {
		return ErrWornOut
	}
	blk.entries = entries

	// TEC parity over the actual post-write states: hard-failed cells
	// hold whatever they are stuck at, and the codeword matches that, so
	// hard failures consume no BCH budget — ECP repairs them after TEC.
	for i := range s.states {
		s.states[i] = f.arr.Sense(f.base(block) + i)
	}
	encoding.DecodeGray4Into(s.bits, s.states)
	f.tec.EncodeInto(s.bits, s.parity)
	f.writeParity(block, s.parity)
	blk.written = true
	return nil
}

// writeParity stores 100 check bits in 50 Gray-coded cells. Parity-cell
// wearout is absorbed by the BCH budget (the pointer format of Figure 14
// addresses only the 256 data cells).
func (f *FourLC) writeParity(block int, parity bitvec.Vector) {
	for i := 0; i < fourLCParityCells; i++ {
		b := uint(parity.Get(2*i)) | uint(parity.Get(2*i+1))<<1
		f.arr.Write(f.base(block)+fourLCDataCells+i, encoding.Gray4Encode(b))
	}
}

// Read implements Arch: array read, BCH-10 transient correction, ECP
// hard-error patch, Gray symbol decode.
func (f *FourLC) Read(block int) ([]byte, error) {
	if err := checkBlockArgs(block, len(f.blocks), nil, false); err != nil {
		return nil, err
	}
	blk := &f.blocks[block]
	if !blk.written {
		return nil, fmt.Errorf("core: block %d never written", block)
	}
	// Stage 1: array read.
	s := &f.s
	for i := range s.states {
		s.states[i] = f.arr.Sense(f.base(block) + i)
	}
	for i := 0; i < fourLCParityCells; i++ {
		b := encoding.Gray4Decode(f.arr.Sense(f.base(block) + fourLCDataCells + i))
		s.parity.Set(2*i, b&1)
		s.parity.Set(2*i+1, (b>>1)&1)
	}

	// Stage 2: transient error correction.
	msg := s.bits
	encoding.DecodeGray4Into(msg, s.states)
	res := f.tec.Decode(msg, s.parity)
	uncorrectable := !res.OK

	// Stage 3: hard error correction — patch the intended states of
	// failed cells into the bit stream.
	for _, e := range blk.entries {
		if !e.Valid {
			continue
		}
		b := encoding.Gray4Decode(e.Replacement)
		msg.Set(2*e.Ptr, b&1)
		msg.Set(2*e.Ptr+1, (b>>1)&1)
	}

	// Stage 4: symbol decode (Gray bits are the data bits directly).
	if uncorrectable {
		return msg.Bytes(), ErrUncorrectable
	}
	return msg.Bytes(), nil
}

// Scrub implements Arch.
func (f *FourLC) Scrub(block int) error {
	data, err := f.Read(block)
	if err != nil && err != ErrUncorrectable {
		return err
	}
	if werr := f.Write(block, data); werr != nil {
		return werr
	}
	return err
}

// ECPEntriesUsed returns the consumed ECP capacity of a block.
func (f *FourLC) ECPEntriesUsed(block int) int {
	n := 0
	for _, e := range f.blocks[block].entries {
		if e.Valid {
			n++
		}
	}
	return n
}
