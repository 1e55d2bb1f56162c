package wearout

import (
	"fmt"

	"repro/internal/encoding"
)

// MarkAndSpare is the paper's wearout-tolerance mechanism for 3-ON-2
// encoded blocks (Section 6.4). A cell pair containing a worn-out cell is
// marked with the reserved INV state ([S4, S4]); on read, a MUX network
// driven by prefix OR chains shifts spare pairs in to replace the marked
// ones (Figure 12). The storage overhead is two spare cells (one pair)
// per tolerated failure — versus five cells per failure for MLC ECP.
//
// The paper's design point is 171 data pairs (342 cells holding 512 bits)
// plus 6 spare pairs (12 cells) tolerating six wearout failures.
type MarkAndSpare struct {
	DataPairs  int
	SparePairs int
}

// PaperDesign returns the 64-byte-block configuration of Section 6.4.
func PaperDesign() MarkAndSpare {
	return MarkAndSpare{DataPairs: 171, SparePairs: 6}
}

// TotalPairs returns data plus spare pairs.
func (m MarkAndSpare) TotalPairs() int { return m.DataPairs + m.SparePairs }

// TotalCells returns the cell footprint (two cells per pair).
func (m MarkAndSpare) TotalCells() int { return 2 * m.TotalPairs() }

// SpareCellsPerFailure is the scheme's marginal overhead: one pair.
const SpareCellsPerFailure = 2

// ErrTooManyFailures is returned when a block carries more INV pairs than
// there are spare pairs.
var ErrTooManyFailures = fmt.Errorf("wearout: more INV pairs than spares")

// Correct performs the read-side correction of Figure 12 on a block of
// pair values (0..8, with 8 = INV), laid out as DataPairs data pairs
// followed by SparePairs spare pairs. It returns the DataPairs logical
// pair values with INV pairs squeezed out and spares shifted in — the
// hardware's cascade of MUX stages, expressed functionally — plus the
// number of spare pairs consumed.
func (m MarkAndSpare) Correct(pairs []int) (data []int, used int, err error) {
	data = make([]int, m.DataPairs)
	used, err = m.CorrectInto(data, pairs)
	if err != nil {
		return nil, used, err
	}
	return data, used, nil
}

// CorrectInto is Correct writing the DataPairs logical pair values into
// data, which must hold exactly DataPairs entries. On error the contents
// of data are unspecified.
func (m MarkAndSpare) CorrectInto(data, pairs []int) (used int, err error) {
	if len(data) != m.DataPairs {
		panic(fmt.Sprintf("wearout: %d-entry data buffer, want %d", len(data), m.DataPairs))
	}
	if len(pairs) != m.TotalPairs() {
		return 0, fmt.Errorf("wearout: got %d pairs, want %d", len(pairs), m.TotalPairs())
	}
	n, inv := 0, 0
	for _, p := range pairs {
		if p < 0 || p > encoding.INV {
			return 0, fmt.Errorf("wearout: pair value %d out of range", p)
		}
		if p == encoding.INV {
			inv++
			continue
		}
		if n < m.DataPairs {
			data[n] = p
			n++
		}
	}
	if inv > m.SparePairs {
		return inv, ErrTooManyFailures
	}
	if n < m.DataPairs {
		// Cannot happen when inv <= SparePairs, by counting.
		return inv, fmt.Errorf("wearout: internal shortfall: %d data pairs", n)
	}
	return inv, nil
}

// Layout performs the write-side placement: given DataPairs logical pair
// values and the set of marked (worn) physical pair positions, it returns
// the physical pair values — data pairs skipped over marked positions,
// marked positions pinned to INV, and unused spare positions padded with
// zero. Correct is its exact inverse for any marking within capacity.
func (m MarkAndSpare) Layout(data []int, marked map[int]bool) ([]int, error) {
	out := make([]int, m.TotalPairs())
	if err := m.LayoutInto(out, data, marked); err != nil {
		return nil, err
	}
	return out, nil
}

// LayoutInto is Layout writing the physical pair values into out, which
// must hold exactly TotalPairs entries. On error the contents of out are
// unspecified.
func (m MarkAndSpare) LayoutInto(out, data []int, marked map[int]bool) error {
	if len(out) != m.TotalPairs() {
		panic(fmt.Sprintf("wearout: %d-entry layout buffer, want %d", len(out), m.TotalPairs()))
	}
	if len(data) != m.DataPairs {
		return fmt.Errorf("wearout: got %d data pairs, want %d", len(data), m.DataPairs)
	}
	if len(marked) > m.SparePairs {
		return ErrTooManyFailures
	}
	next := 0
	for i := range out {
		if marked[i] {
			out[i] = encoding.INV
			continue
		}
		if next < len(data) {
			v := data[next]
			if v < 0 || v >= encoding.INV {
				return fmt.Errorf("wearout: data pair value %d invalid", v)
			}
			out[i] = v
			next++
		} else {
			out[i] = 0
		}
	}
	if next < len(data) {
		return ErrTooManyFailures
	}
	return nil
}

// CellOverhead returns the scheme's cell overhead for tolerating n
// failures (used by Figure 15's capacity comparison).
func CellOverhead(n int) int { return SpareCellsPerFailure * n }
