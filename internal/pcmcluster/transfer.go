package pcmcluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pcmserve"
)

// transferPart is one unit of bulk-transfer work: push one partition's
// slots to one target node (the joiner, or a drainee's replacement).
type transferPart struct {
	part   int64
	target *node
}

// transferProgress is the transfer checkpoint: which partitions are
// fully pushed and where inside the current one the cursor stands.
// runTransfer reads and advances it under its mutex, so a retry after
// a transient failure — a mid-join kill of the target included —
// resumes at the cursor instead of restarting from partition zero.
type transferProgress struct {
	mu    sync.Mutex
	parts []transferPart
	next  int   // index of the first incomplete part
	slot  int64 // absolute resume slot within parts[next] (0 = part start)
}

func newTransferProgress(parts []transferPart) *transferProgress {
	return &transferProgress{parts: parts}
}

func (p *transferProgress) progress() (done, total int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int64(p.next), int64(len(p.parts))
}

// errTransferSources reports a segment for which too few valid source
// replies arrived to pick winners safely. It is transient: sources
// recover, and the resume loop retries the same segment.
var errTransferSources = errors.New("pcmcluster: transfer segment below read quorum" +
	" (source replicas unavailable)")

// runTransfer pushes every remaining checkpointed partition to its
// target. It returns nil when the checkpoint completes, or the first
// error — leaving the checkpoint at the failed segment for the resume
// loop.
func (c *Cluster) runTransfer(ctx context.Context, ep *epoch, prog *transferProgress) error {
	for {
		select {
		case <-c.stop:
			return ErrClosed
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		prog.mu.Lock()
		if prog.next >= len(prog.parts) {
			prog.mu.Unlock()
			return nil
		}
		tp := prog.parts[prog.next]
		cursor := prog.slot
		prog.mu.Unlock()

		lo, n := c.partSpan(tp.part)
		if cursor < lo {
			cursor = lo
		}
		cause := "join"
		if ep.mode == modeDraining {
			cause = "drain"
		}
		for cursor < lo+n {
			seg := c.segSlots
			if rest := lo + n - cursor; rest < seg {
				seg = rest
			}
			// Each segment runs as its own cause-tagged root trace; the
			// caller's ctx (with its deadline) is kept, only the trace ID
			// is layered on.
			sctx, ot := ctx, (*opTrace)(nil)
			if !c.traceOff {
				id := obs.NextTraceID()
				sctx = obs.ContextWithTrace(ctx, id)
				ot = c.startTrace("transfer_segment", cursor, id, cause)
			}
			err := c.transferSegment(sctx, ot, ep, tp, cursor, seg)
			ot.finish()
			if err != nil {
				return err
			}
			cursor += seg
			c.met.transferSegments.Inc()
			prog.mu.Lock()
			prog.slot = cursor
			prog.mu.Unlock()
			select {
			case <-c.stop:
				return ErrClosed
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
		}
		prog.mu.Lock()
		prog.next++
		prog.slot = 0
		prog.mu.Unlock()
	}
}

// transferSegment moves one contiguous run of slots to the target:
// one span read from every current owner (readSpan), per-slot winner
// election (same version-then-CRC order as the read path), then
// stripe-locked recheck-then-write pushes so a push can never clobber
// a newer foreground write landing on the target through the
// dual-quorum write path.
func (c *Cluster) transferSegment(ctx context.Context, ot *opTrace, ep *epoch, tp transferPart, lo, n int64) error {
	if c.coded {
		// Coded mode cannot forward slots verbatim: the target needs the
		// fragment for ITS stripe position, synthesized from the
		// sources' fragments (see coded.go).
		return c.transferSegmentCoded(ctx, ot, ep, tp, lo, n)
	}
	srcs := make([]*node, 0, c.rf)
	for _, s := range ep.cur.replicas(tp.part, c.rf) {
		if s != tp.target {
			srcs = append(srcs, s)
		}
	}
	if len(srcs) == 0 {
		return fmt.Errorf("pcmcluster: partition %d has no source besides the target", tp.part)
	}

	// Per-slot winner election. Every slot needs at least R structurally
	// valid source copies — the same bar a foreground read applies — or
	// the segment is retried once sources recover.
	reads, _ := c.readSpan(ctx, ot, "source_read", srcs, lo, n)
	winners := make([][]byte, n) // nil = nothing to push
	metas := make([]blockMeta, n)
	for i, all := range reads {
		valids := 0
		for _, res := range all {
			if !res.valid() {
				continue
			}
			valids++
			if res.status == slotOK && (winners[i] == nil || res.meta.newer(metas[i])) {
				winners[i], metas[i] = res.slot, res.meta
			}
		}
		if valids < c.r {
			return fmt.Errorf("%w: partition %d slot %d: %d/%d valid", errTransferSources,
				tp.part, lo+int64(i), valids, c.r)
		}
	}

	// Push under the segment's stripe locks, acquired in ascending
	// order. The transfer path is the only one that ever holds more
	// than one stripe at a time; everyone else locks exactly one, so
	// the sorted acquisition cannot deadlock against them.
	stripes := stripesForRange(lo, n)
	for _, s := range stripes {
		c.stripes[s].Lock()
	}
	defer func() {
		for _, s := range stripes {
			c.stripes[s].Unlock()
		}
	}()

	// One vectored trailer read rechecks the whole segment on the
	// target; peers without READ_STRIDE fall back to a full range read.
	recheckT := time.Now()
	tMetas, tOK, err := c.targetMetas(ctx, tp.target, lo, n)
	ot.span("target_recheck", tp.target.addr, recheckT, err)
	if err != nil {
		return err
	}

	pushT := time.Now()
	for i := int64(0); i < n; i++ {
		if winners[i] == nil {
			continue // nothing written anywhere: leave the target alone
		}
		if tOK[i] && !metas[i].newer(tMetas[i]) {
			c.met.transferSlotsSkipped.Inc()
			continue // target already at or past the winner
		}
		if !tp.target.admit() {
			c.noteResult(tp.target, true, errNodeDown)
			return errNodeDown
		}
		_, err := tp.target.client.WriteAtCtx(ctx, winners[i], (lo+i)*SlotBytes)
		c.noteResult(tp.target, true, err)
		if err != nil {
			return err
		}
		c.met.transferSlotsPushed.Inc()
	}
	ot.span("push_slots", tp.target.addr, pushT, nil)
	return nil
}

// targetMetas fetches the target's current slot trailers for a
// segment. tOK[i] is false when the trailer is unreadable or invalid —
// the push then proceeds unconditionally, mirroring how repairs treat
// corrupt slots.
func (c *Cluster) targetMetas(ctx context.Context, target *node, lo, n int64) ([]blockMeta, []bool, error) {
	if !target.admit() {
		c.noteResult(target, false, errNodeDown)
		return nil, nil, errNodeDown
	}
	metas := make([]blockMeta, n)
	ok := make([]bool, n)
	if !target.noMerkle.Load() {
		recs, err := target.client.ReadStrideCtx(ctx, lo*SlotBytes+DataBytes, SlotBytes, metaBytes, int(n))
		if err == nil {
			c.noteResult(target, false, nil)
			for i, rec := range recs {
				if rec == nil {
					continue
				}
				metas[i], ok[i] = decodeMeta(rec)
			}
			return metas, ok, nil
		}
		if !errors.Is(err, pcmserve.ErrUnsupported) {
			c.noteResult(target, false, err)
			return nil, nil, err
		}
		target.noMerkle.Store(true)
	}
	buf := make([]byte, n*SlotBytes)
	_, err := target.client.ReadAtCtx(ctx, buf, lo*SlotBytes)
	c.noteResult(target, false, err)
	if err != nil {
		return nil, nil, err
	}
	for i := int64(0); i < n; i++ {
		_, m, status := decodeSlot(buf[i*SlotBytes : (i+1)*SlotBytes])
		if status == slotOK || status == slotUnwritten {
			metas[i], ok[i] = m, true
		}
	}
	return metas, ok, nil
}

// stripesForRange returns the distinct stripe indices covering blocks
// [lo, lo+n), sorted ascending for deadlock-free multi-acquisition.
func stripesForRange(lo, n int64) []int {
	if n >= writeStripes {
		out := make([]int, writeStripes)
		for i := range out {
			out[i] = i
		}
		return out
	}
	seen := make(map[int]bool, n)
	out := make([]int, 0, n)
	for b := lo; b < lo+n; b++ {
		s := int(uint64(b) % writeStripes)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}
