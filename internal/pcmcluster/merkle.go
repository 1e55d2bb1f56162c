package pcmcluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/pcmserve"
)

// Merkle anti-entropy.
//
// The span sweep reads every slot from every replica once per
// pass — O(blocks × RF) reads even when nothing diverges, which dies
// at production block counts. The Merkle exchange instead compares
// hash-tree levels built on demand by each node over its raw slot
// bytes (HASH_RANGE: one digest per chunk, computed server-side,
// nothing shipped but the digests) and descends only into chunks whose
// digests disagree. A clean partition costs RF digest RPCs; a
// partition with one divergent slot costs O(fanout × depth) digest
// comparisons plus the one slot's reconciliation — O(divergence), not
// O(blocks).
//
// Digests cover the full 80-byte slots, so stored-bit rot under an
// intact trailer is caught too, not just missed writes. At the leaf
// the replicas' slot trailers are compared byte-for-byte (one
// READ_STRIDE round trip per replica); slots whose trailers differ —
// or leaves whose digests disagree while every trailer matches, the
// data-rot signature — are fetched in full and reconciled through the
// same stripe-locked winner-repair path foreground reads use.

const (
	// merkleFanout is the tree's branching factor: each HASH_RANGE
	// request splits its span into at most this many chunks.
	merkleFanout = 8
	// merkleLeafSlots is the span below which the descent switches from
	// digest comparison to direct trailer comparison.
	merkleLeafSlots = 8
)

// merkleOutcome classifies one partition exchange.
type merkleOutcome int

const (
	merkleClean merkleOutcome = iota
	merkleRepaired
	merkleUnavailable
	merkleUnsupported
)

// merkleSweepPartition reconciles one partition by digest exchange.
func (c *Cluster) merkleSweepPartition(ctx context.Context, ot *opTrace, part int64, reps []*node) merkleOutcome {
	lo, n := c.partSpan(part)
	exchT := time.Now()
	divergent, err := c.merkleDescend(ctx, reps, lo, n)
	ot.span("merkle_exchange", "", exchT, err)
	switch {
	case err == nil:
	case errors.Is(err, pcmserve.ErrUnsupported):
		return merkleUnsupported
	default:
		c.met.mkPartsUnavailable.Inc()
		return merkleUnavailable
	}
	if len(divergent) == 0 {
		c.met.mkPartsClean.Inc()
		return merkleClean
	}
	// Full-slot reconciliation, one span read per run of adjacent
	// divergent slots: the only point where whole slots cross the wire,
	// and the counter the O(divergence) acceptance bound is asserted
	// against. Unmetered, like the digest exchange that found them.
	slices.Sort(divergent)
	for i := 0; i < len(divergent); {
		j := i + 1
		for j < len(divergent) && divergent[j] == divergent[j-1]+1 {
			j++
		}
		c.met.mkSlotsFetched.Add(uint64(len(reps) * (j - i)))
		c.sweepSpan(ctx, ot, reps, divergent[i], int64(j-i), false)
		i = j
	}
	c.met.mkPartsDivergent.Inc()
	return merkleRepaired
}

// merkleDescend walks the replicas' implicit hash trees from the
// partition root, returning the slots whose copies disagree. An error
// means the exchange could not finish (a replica down mid-descent, or
// one that does not speak the ops — distinguishable via
// pcmserve.ErrUnsupported).
func (c *Cluster) merkleDescend(ctx context.Context, reps []*node, lo, n int64) ([]int64, error) {
	type span struct{ lo, n int64 }
	// compareLeaf's all-trailers-equal-means-data-rot rule is only sound
	// for spans whose digests were seen to disagree, so a root span
	// already at leaf size gets a digest exchange first.
	if n <= merkleLeafSlots {
		clean := true
		var first []pcmserve.RangeDigest
		for i, rep := range reps {
			d, err := c.hashRangeOn(ctx, rep, lo, n)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				first = d
				continue
			}
			for ci := range d {
				if ci >= len(first) || d[ci].Unreadable || first[ci].Unreadable ||
					d[ci].Digest != first[ci].Digest {
					clean = false
				}
			}
		}
		if clean {
			return nil, nil
		}
		return c.compareLeaf(ctx, reps, lo, n)
	}
	queue := []span{{lo, n}}
	var divergent []int64
	for len(queue) > 0 {
		s := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if s.n <= merkleLeafSlots {
			slots, err := c.compareLeaf(ctx, reps, s.lo, s.n)
			if err != nil {
				return nil, err
			}
			divergent = append(divergent, slots...)
			continue
		}
		// One digest vector per replica over the span.
		digests := make([][]pcmserve.RangeDigest, len(reps))
		for i, rep := range reps {
			d, err := c.hashRangeOn(ctx, rep, s.lo, s.n)
			if err != nil {
				return nil, err
			}
			digests[i] = d
		}
		// The server's chunk split is deterministic in (count, fanout),
		// so chunk i covers the same records on every replica.
		childLo := s.lo
		for ci := range digests[0] {
			records := int64(digests[0][ci].Records)
			mismatch := false
			for _, d := range digests {
				if ci >= len(d) || int64(d[ci].Records) != records {
					return nil, fmt.Errorf("pcmcluster: merkle chunk layout diverged between replicas")
				}
				if d[ci].Unreadable || d[ci].Digest != digests[0][ci].Digest {
					mismatch = true
				}
			}
			if mismatch {
				queue = append(queue, span{childLo, records})
			}
			childLo += records
		}
	}
	return divergent, nil
}

// hashRangeOn requests one replica's digest vector for a slot span,
// bounded by a per-RPC deadline.
func (c *Cluster) hashRangeOn(ctx context.Context, rep *node, lo, n int64) ([]pcmserve.RangeDigest, error) {
	if rep.noMerkle.Load() {
		return nil, pcmserve.ErrUnsupported
	}
	if !rep.admit() {
		c.noteResult(rep, false, errNodeDown)
		return nil, errNodeDown
	}
	ctx, cancel := context.WithTimeout(ctx, c.opTimeout)
	defer cancel()
	c.met.mkDigestRPCs.Inc()
	d, err := rep.client.HashRangeCtx(ctx, lo*SlotBytes, SlotBytes, int(n), merkleFanout)
	c.noteResult(rep, false, err)
	if err != nil {
		if errors.Is(err, pcmserve.ErrUnsupported) {
			rep.noMerkle.Store(true)
		}
		return nil, err
	}
	return d, nil
}

// compareLeaf compares a leaf span's slot trailers across replicas —
// one READ_STRIDE round trip each — and returns the slots needing
// full reconciliation. A leaf is only visited because its digests
// disagreed; if every trailer still matches, the divergence is in the
// data bytes under an intact trailer (stored-bit rot), so the whole
// leaf is reconciled — the full-slot re-read decodes data CRCs and
// repairs the rotted copy.
func (c *Cluster) compareLeaf(ctx context.Context, reps []*node, lo, n int64) ([]int64, error) {
	trailers := make([][][]byte, len(reps))
	for i, rep := range reps {
		if rep.noMerkle.Load() {
			return nil, pcmserve.ErrUnsupported
		}
		if !rep.admit() {
			c.noteResult(rep, false, errNodeDown)
			return nil, errNodeDown
		}
		c.met.mkDigestRPCs.Inc()
		rctx, cancel := context.WithTimeout(ctx, c.opTimeout)
		recs, err := rep.client.ReadStrideCtx(rctx, lo*SlotBytes+DataBytes, SlotBytes, metaBytes, int(n))
		cancel()
		c.noteResult(rep, false, err)
		if err != nil {
			if errors.Is(err, pcmserve.ErrUnsupported) {
				rep.noMerkle.Store(true)
			}
			return nil, err
		}
		trailers[i] = recs
	}
	var out []int64
	for i := int64(0); i < n; i++ {
		mismatch := false
		ref := trailers[0][i]
		for _, t := range trailers {
			if t[i] == nil || ref == nil || !bytes.Equal(t[i], ref) {
				mismatch = true
				break
			}
		}
		if mismatch {
			out = append(out, lo+i)
		}
	}
	if out == nil {
		// Digests disagreed but trailers match everywhere: data-byte rot.
		for i := int64(0); i < n; i++ {
			out = append(out, lo+i)
		}
	}
	return out, nil
}
