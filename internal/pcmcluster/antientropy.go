package pcmcluster

import (
	"context"
	"time"
)

// antiEntropyLoop is the cross-node scrubber: it walks the partition
// space one partition per tick and reconciles replicas that diverge
// from the highest-version valid copy — catching divergence on blocks
// foreground reads never touch (a down node that missed writes,
// dropped hints, bit rot on a cold replica).
//
// When every replica of a partition speaks the range ops, the sweep is
// a Merkle digest exchange (merkle.go): it reads O(divergence) slots,
// not O(blocks). Coded clusters, and partitions with a replica that
// answered a range op with ErrUnsupported (old pcmserve builds), take
// the span sweep instead: every slot of the partition from every
// replica, one read per replica per chunk, metered by the sweep budget
// so a big keyspace walk cannot starve foreground traffic.
func (c *Cluster) antiEntropyLoop(interval time.Duration) {
	defer c.loops.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	cursor := int64(0)
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		if cursor >= c.numParts() {
			cursor = 0
		}
		if c.brownoutLevel() >= brownoutPauseAE {
			// Brownout: the sweep is the heaviest background load, so it
			// yields first. The cursor holds position; the tick retries
			// once the overload window clears.
			c.met.aePaused.Inc()
			continue
		}
		c.sweepPartition(cursor)
		cursor++
		if cursor >= c.numParts() {
			cursor = 0
			c.met.aePasses.Inc()
		}
	}
}

// sweepPartition reconciles one partition, preferring the Merkle
// exchange and falling back to the metered span sweep. The whole
// partition sweep runs under one cause-tagged root trace, so its RPCs
// show up server-side under an "antientropy" identity instead of
// blending into foreground traffic.
func (c *Cluster) sweepPartition(part int64) {
	ep := c.epoch.Load()
	reps := ep.cur.replicas(part, c.rf)
	if len(reps) == 0 {
		return
	}
	lo, n := c.partSpan(part)
	ctx, ot := c.bgTrace("antientropy_sweep", "antientropy", lo)
	defer ot.finish()
	if c.coded {
		// Coded replicas store different bytes by construction, so a
		// digest exchange always "diverges": the span sweep with
		// stripe-aware election is the only meaningful reconciliation.
		c.sweepSpan(ctx, ot, reps, lo, n, true)
		return
	}
	if !c.disableMerkle {
		merkleOK := true
		for _, n := range reps {
			if n.noMerkle.Load() {
				merkleOK = false
				break
			}
		}
		if merkleOK && c.merkleSweepPartition(ctx, ot, part, reps) != merkleUnsupported {
			return
		}
	}
	c.met.mkFallback.Inc()
	ot.mark("fallback_sweep")
	c.sweepSpan(ctx, ot, reps, lo, n, true)
}

// aeSpanBytes caps one replica's read in the sweep, far below
// pcmserve.DefaultMaxFrame.
const aeSpanBytes = 64 << 10

// sweepSpan reconciles slots [lo, lo+n) across reps in chunks: each
// chunk costs one ReadAtCtx per replica (readSpan), then every slot is
// elected and repaired on its own, exactly as a per-slot sweep would.
// When metered, each chunk first takes its bytes across all replicas
// from the sweep budget; a chunk never exceeds the budget's burst, so
// TryTake can always grant it eventually.
func (c *Cluster) sweepSpan(ctx context.Context, ot *opTrace, reps []*node, lo, n int64, metered bool) {
	perSlot := int64(len(reps)) * c.slotBytes
	chunk := aeSpanBytes / c.slotBytes
	if c.aeBudget != nil {
		chunk = min(chunk, int64(c.aeBudget.Burst())/perSlot)
	}
	chunk = max(chunk, 1)
	for off := int64(0); off < n; off += chunk {
		m := min(chunk, n-off)
		if metered && !c.aeTake(m*perSlot) {
			return // closing
		}
		rctx, cancel := context.WithTimeout(ctx, c.opTimeout)
		slots, rpcs := c.readSpan(rctx, ot, "sweep_span_read", reps, lo+off, m)
		cancel()
		c.met.aeReadRPCs.Add(uint64(rpcs))
		c.met.aeSlotsRead.Add(uint64(m) * uint64(len(reps)))
		for i, all := range slots {
			if c.coded {
				c.sweepCodedBlock(lo+off+int64(i), reps, all)
			} else {
				c.sweepBlockReplicas(ctx, ot, lo+off+int64(i), all)
			}
		}
	}
}

// aeTake blocks until the sweep budget grants n bytes of replica
// reads, returning false when the cluster is closing. The poll loop
// (rather than Budget.Take) keeps Close from waiting out a long
// budget debt.
func (c *Cluster) aeTake(n int64) bool {
	if c.aeBudget == nil {
		return true
	}
	throttled := false
	for !c.aeBudget.TryTake(int(n), 0) {
		if !throttled {
			throttled = true
			c.met.aeThrottled.Inc()
		}
		select {
		case <-c.stop:
			return false
		case <-time.After(5 * time.Millisecond):
		}
	}
	return true
}

// sweepBlockReplicas reconciles one mirrored block from every
// replica's reply (all, read by sweepSpan): the newest structurally
// valid copy wins, and stale or corrupt copies are repaired from it
// under the stripe lock.
func (c *Cluster) sweepBlockReplicas(ctx context.Context, ot *opTrace, b int64, all []replicaRead) {
	var winner replicaRead
	found := false
	for _, res := range all {
		if res.valid() && (!found || res.meta.newer(winner.meta)) {
			winner, found = res, true
		}
	}
	if !found {
		// No structurally valid copy reachable: nothing trustworthy to
		// repair from. Foreground reads fail typed; the sweep retries
		// next pass.
		c.met.aeUnavailable.Inc()
		return
	}
	repaired := false
	for _, res := range all {
		if res.err != nil {
			continue
		}
		switch {
		case res.status == slotCorrupt:
			c.met.divergentCorrupt.Inc()
		case winner.meta.newer(res.meta):
			c.met.divergentStale.Inc()
		default:
			continue
		}
		repaired = true
		c.repairReplica(ctx, ot, res.n, b, winner.slot, winner.meta, c.met.repairsAntiEntropy)
	}
	if repaired {
		c.met.aeRepaired.Inc()
	} else {
		c.met.aeClean.Inc()
	}
}
