package pcmcluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/ecstripe"
	"repro/internal/obs"
	"repro/internal/pcmserve"
)

// codedOutcome classifies one election attempt over the fragment
// replies gathered so far.
type codedOutcome int

const (
	// codedWait: no version is decidable yet, but unheard replicas can
	// still change the verdict — keep collecting.
	codedWait codedOutcome = iota
	// codedDone: a winning version reconstructed (and verified against
	// its stripe CRC).
	codedDone
	// codedZero: every decidable version is provably unacknowledged and
	// enough replicas answered — the block reads as never written.
	codedZero
	// codedFail: all replies are in and no version can be served
	// without risking staleness; the read must fail typed.
	codedFail
)

// codedElection is the result of electing a stripe winner from
// fragment replies.
type codedElection struct {
	outcome codedOutcome
	block   []byte
	winner  blockMeta
	// reconstructed is true when parity math ran — the winning set was
	// not simply the K data fragments in their home positions.
	reconstructed bool
}

// electCoded tries to elect and reconstruct the newest acknowledged
// version from the replies so far. nReps is the total number of
// replicas that could possibly hold a fragment of this stripe; every
// replica WITHOUT a structurally valid reply in `all` — not yet
// launched, still in flight, errored (a down node may have acked
// before dying), or corrupt — counts as an unknown possible holder of
// any version. A valid reply at another version or an unwritten slot
// proves its node holds nothing else (one slot per node).
//
// Versions are visited newest-first (version order, stripe-CRC
// tiebreak — identical to blockMeta.newer). A version with K distinct
// fragment indices reconstructs and wins. A version with fewer may be
// skipped ONLY when provably unacknowledged: count(v) + unknown +
// shadow < W — where shadow counts replies in already-skipped NEWER
// groups, whose nodes may have acked v before the newer write
// overwrote them — means the writer cannot have collected W fragment
// acks even if every uncertain replica acked v. Otherwise the
// election waits (more info could decide it) or fails — never serves
// an older version (or zeros) past a possibly-acknowledged newer one.
// The caller converts codedWait into a typed failure when no further
// replies can arrive.
func (c *Cluster) electCoded(all []replicaRead, nReps int) codedElection {
	k := c.codec.K
	groups := make(map[blockMeta][]replicaRead)
	valids := 0
	for _, res := range all {
		if !res.valid() {
			continue
		}
		valids++
		if res.status == slotOK {
			groups[res.meta] = append(groups[res.meta], res)
		}
	}
	unknown := nReps - valids
	metas := make([]blockMeta, 0, len(groups))
	for m := range groups {
		metas = append(metas, m)
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].newer(metas[j]) })

	undecidable := func() codedElection {
		if unknown > 0 {
			return codedElection{outcome: codedWait}
		}
		return codedElection{outcome: codedFail}
	}
	shadow := 0
	for _, meta := range metas {
		grp := groups[meta]
		frags := make([]ecstripe.Fragment, 0, len(grp))
		seen := make(map[uint8]bool, len(grp))
		for _, res := range grp {
			if !seen[res.fragIdx] {
				seen[res.fragIdx] = true
				frags = append(frags, ecstripe.Fragment{Index: int(res.fragIdx), Data: res.data})
			}
		}
		if len(frags) >= k {
			if block, systematic, err := c.reconstructStripe(frags, meta); err == nil {
				return codedElection{outcome: codedDone, block: block, winner: meta, reconstructed: !systematic}
			}
			// Reconstruction or stripe-CRC verification failed — the
			// group is untrustworthy. Fall through to the skip guard: it
			// is treated like a group that cannot (yet) be served.
		}
		if len(grp)+unknown+shadow >= c.w {
			// Possibly acknowledged: serving anything older would be a
			// stale read.
			return undecidable()
		}
		// Provably unacknowledged: skip to the next-older version. Its
		// nodes join the shadow — they may have acked an older version
		// before this one overwrote them.
		shadow += len(grp)
	}
	if valids >= c.r && shadow+unknown < c.w {
		// Every written version was provably unacknowledged and an
		// acknowledged write cannot hide entirely among the uncertain
		// replicas (unknown plus overwritten-by-skipped-versions): the
		// block provably reads as never written.
		return codedElection{outcome: codedZero, block: make([]byte, DataBytes)}
	}
	return undecidable()
}

// reconstructStripe decodes one version group's fragments into the
// block and verifies the result against the stripe CRC stamped by the
// writer. systematic reports whether the fast copy path sufficed (the
// K data fragments present under their home indices).
func (c *Cluster) reconstructStripe(frags []ecstripe.Fragment, meta blockMeta) (block []byte, systematic bool, err error) {
	k := c.codec.K
	data, err := c.codec.Reconstruct(frags)
	if err != nil {
		c.met.ecReconstructFailed.Inc()
		return nil, false, err
	}
	block = make([]byte, 0, DataBytes)
	for _, d := range data {
		block = append(block, d...)
	}
	if ecstripe.StripeCRC(block) != meta.DataCRC {
		// Every fragment passed its own CRC yet the stripe does not —
		// a mixed or forged group. Refuse it rather than serve bytes
		// nobody wrote.
		c.met.ecReconstructFailed.Inc()
		return nil, false, fmt.Errorf("pcmcluster: reconstructed stripe fails its CRC (version %d)", meta.Version)
	}
	systematic = len(frags) >= k
	for i := 0; systematic && i < k; i++ {
		found := false
		for _, f := range frags {
			if f.Index == i {
				found = true
				break
			}
		}
		systematic = found
	}
	return block, systematic, nil
}

// hedge RTT tracking: an EWMA of fragment reply round-trips drives the
// straggler cutoff — the delay after which a coded read launches the
// parity fragments it skipped in phase one.
const hedgeInitRTT = 2 * time.Millisecond

func (c *Cluster) noteFragRTT(d time.Duration) {
	if d <= 0 {
		return
	}
	for {
		cur := c.hedgeRTT.Load()
		next := uint64((time.Duration(cur)*7 + d) / 8)
		if c.hedgeRTT.CompareAndSwap(cur, next) {
			return
		}
	}
}

// hedgeDelay is the straggler cutoff: 3× the reply EWMA, clamped to
// [500µs, OpTimeout/4] so a cold cluster hedges fast and a slow one
// cannot starve the degraded-read path of its time budget.
func (c *Cluster) hedgeDelay() time.Duration {
	d := 3 * time.Duration(c.hedgeRTT.Load())
	if d < 500*time.Microsecond {
		d = 500 * time.Microsecond
	}
	if max := c.opTimeout / 4; d > max {
		d = max
	}
	return d
}

// readCodedBlock is the coded-mode read path. Phase one fans out to
// the K replicas holding the stripe's data fragments (position-
// aligned, they satisfy the read with plain copies). Parity replicas
// launch when a phase-one reply fails, proves corrupt, or the
// straggler cutoff elapses; the election then reconstructs the block
// from any K distinct fragments — the degraded read that rides out up
// to M down or slow nodes.
func (c *Cluster) readCodedBlock(ctx context.Context, b int64) ([]byte, error) {
	c.met.quorumReads.Inc()
	t0 := time.Now()

	var traceID uint64
	var ot *opTrace
	if !c.traceOff {
		ctx, traceID = obs.EnsureTrace(ctx)
		ot = c.startTrace("quorum_read", b, traceID, "")
	}

	ep := c.epoch.Load()
	reps := ep.cur.replicas(c.partOf(b), c.rf)
	k := c.codec.K
	results := make(chan replicaRead, len(reps))
	launched := make([]bool, len(reps))
	inFlight := 0
	launch := func(i int) {
		if launched[i] {
			return
		}
		launched[i] = true
		inFlight++
		c.bg.Add(1)
		go func(n *node) {
			defer c.bg.Done()
			sent := time.Now()
			res := c.readReplica(ctx, n, b)
			res.rtt = time.Since(sent)
			results <- res
		}(reps[i])
	}
	for i := 0; i < k; i++ {
		launch(i)
	}
	hedged := false
	launchRest := func(cause string) {
		if hedged {
			return
		}
		hedged = true
		ot.mark("hedge_" + cause)
		if cause == "straggler" {
			c.met.ecHedgedStraggler.Inc()
		} else {
			c.met.ecHedgedFailure.Inc()
		}
		for i := range reps {
			launch(i)
		}
	}
	hedgeTimer := time.NewTimer(c.hedgeDelay())
	defer hedgeTimer.Stop()

	var all []replicaRead
	invalid := false
	fail := func(err error) ([]byte, error) {
		ot.fail(err)
		c.sloAvail.Record(false)
		c.sloLat.Record(false)
		c.drainCodedReads(b, inFlight-len(all), results, all, reps, codedElection{}, ot)
		c.met.quorumFailRead.Inc()
		return nil, err
	}
	for {
		el := c.electCoded(all, len(reps))
		if el.outcome == codedWait && inFlight == len(all) {
			if !hedged {
				// Phase one is fully in but undecidable (a failed or
				// corrupt fragment, or a version needing parity): go wide.
				launchRest("failure")
				continue
			}
			// Every launched reply is in and the unknown replicas are
			// dead or corrupt — no further reply can decide the read.
			el = codedElection{outcome: codedFail}
		}
		if el.outcome == codedDone || el.outcome == codedZero {
			ot.quorum()
			quorumLat := time.Since(t0)
			c.met.latRead.ObserveTrace(quorumLat.Seconds(), traceID)
			c.sloAvail.Record(true)
			c.sloLat.Record(quorumLat <= c.sloLatTarget)
			if el.reconstructed {
				c.met.ecReconstructRead.Inc()
			}
			if invalid || el.reconstructed {
				c.met.degradedReads.Inc()
			}
			c.bg.Add(1)
			go func(remaining int, all []replicaRead) {
				defer c.bg.Done()
				c.drainCodedReads(b, remaining, results, all, reps, el, ot)
			}(inFlight-len(all), all)
			out := make([]byte, DataBytes)
			copy(out, el.block)
			return out, nil
		}
		if el.outcome == codedFail {
			if fp := firstProblem(all); fp != nil {
				return fail(fmt.Errorf("pcmcluster: read block %d: cannot assemble %d distinct fragments from %d replies (last: %w): %w",
					b, c.r, len(all), fp, ErrReadQuorum))
			}
			return fail(fmt.Errorf("pcmcluster: read block %d: %d replies cannot prove any version safe to serve: %w",
				b, len(all), ErrReadQuorum))
		}
		select {
		case res := <-results:
			all = append(all, res)
			ot.reply("replica_read", res.n, res.rtt, res.err, false)
			if res.valid() {
				c.noteFragRTT(res.rtt)
			} else {
				invalid = true
				launchRest("failure")
			}
		case <-hedgeTimer.C:
			launchRest("straggler")
		case <-ctx.Done():
			return fail(fmt.Errorf("pcmcluster: read block %d: %d replies: %w: %w",
				b, len(all), ctx.Err(), ErrReadQuorum))
		}
	}
}

// drainCodedReads consumes outstanding fragment replies, closes the
// trace, and — when the election produced a winner — repairs every
// divergent fragment: stale or corrupt fragments are re-encoded from
// the reconstructed block at the replica's canonical index, and
// aligned-version fragments stored under a stale index (a membership
// reshuffle moved the node) are rewritten in place.
func (c *Cluster) drainCodedReads(b int64, remaining int, results chan replicaRead, all []replicaRead, reps []*node, el codedElection, ot *opTrace) {
	for ; remaining > 0; remaining-- {
		res := <-results
		ot.reply("replica_read", res.n, res.rtt, res.err, true)
		all = append(all, res)
	}
	ot.finish()
	if el.outcome != codedDone {
		return
	}
	c.repairCodedReplicas(b, reps, all, el, "read_repair", c.met.repairsRead)
}

// repairCodedReplicas reconciles fragment replies against an elected
// winner, rewriting divergent fragments. It is shared by the read path
// (cause "read_repair") and the anti-entropy sweep.
func (c *Cluster) repairCodedReplicas(b int64, reps []*node, all []replicaRead, el codedElection, cause string, counter *obs.Counter) (repaired bool) {
	dataFrags, err := c.codec.Split(el.block)
	if err != nil {
		return false
	}
	for _, res := range all {
		if res.err != nil {
			continue
		}
		pos := nodePosition(reps, res.n)
		if pos < 0 {
			continue
		}
		switch {
		case res.status == slotCorrupt || el.winner.newer(res.meta):
			if res.status == slotCorrupt {
				c.met.divergentCorrupt.Inc()
			} else {
				c.met.divergentStale.Inc()
			}
			slot, err := c.encodeFragmentSlot(dataFrags, pos, el.winner.Version, el.winner.DataCRC)
			if err != nil {
				continue
			}
			repaired = true
			if c.brownoutLevel() >= brownoutDeferRepairs {
				c.queueHint(res.n, b, slot, el.winner.Version)
				c.met.repairsDeferred.Inc()
				continue
			}
			rctx, rot := c.bgTrace(cause, cause, b)
			c.repairReplica(rctx, rot, res.n, b, slot, el.winner, counter)
			rot.finish()
		case res.status == slotOK && res.meta == el.winner && int(res.fragIdx) != pos:
			repaired = true
			c.realignFragment(b, res.n, pos, dataFrags, el.winner)
		}
	}
	return repaired
}

// realignFragment rewrites one replica's fragment at its canonical
// placement index. The stored fragment is valid data at the winning
// version — only its index is a leftover from an older placement — so
// version-ordered repair would skip it; this path rechecks and
// rewrites on index alone. Regression safety matches repairReplica:
// under the stripe lock, any newer (or re-aligned) slot aborts the
// write.
func (c *Cluster) realignFragment(b int64, n *node, pos int, dataFrags [][]byte, winner blockMeta) {
	if n.currentState() != NodeUp || n.isOverloaded() {
		return // anti-entropy retries once the node is reachable again
	}
	slot, err := c.encodeFragmentSlot(dataFrags, pos, winner.Version, winner.DataCRC)
	if err != nil {
		return
	}
	ctx, ot := c.bgTrace("fragment_realign", "antientropy", b)
	defer ot.finish()
	ctx, cancel := context.WithTimeout(ctx, c.opTimeout)
	defer cancel()
	mu := c.stripe(b)
	mu.Lock()
	defer mu.Unlock()
	recheckT := time.Now()
	cur := c.readReplica(ctx, n, b)
	ot.span("realign_recheck", n.addr, recheckT, cur.err)
	if cur.err != nil {
		return
	}
	aligned := cur.meta == winner && int(cur.fragIdx) == pos
	if cur.status == slotOK && (cur.meta.newer(winner) || aligned) {
		ot.mark("realign_skipped")
		return
	}
	writeT := time.Now()
	_, werr := n.client.WriteAtCtx(ctx, slot, b*c.slotBytes)
	ot.span("realign_write", n.addr, writeT, werr)
	c.noteResult(n, true, werr)
	if werr != nil {
		c.met.repairsFailed.Inc()
		return
	}
	c.met.ecRealigned.Inc()
}

// sweepCodedBlock is the coded-mode anti-entropy unit: from every
// fragment reply of one stripe (all, read by sweepSpan), elect the
// winner (all replies in, so the possible-acks rule degenerates to
// plain count checks) and repair stale, corrupt, or misaligned
// fragments by re-encoding from the K survivors. The Merkle exchange
// is structurally useless here — coded replicas store different bytes
// by design, so digests never match — which is why sweepPartition
// routes coded clusters straight to the span sweep.
func (c *Cluster) sweepCodedBlock(b int64, reps []*node, all []replicaRead) {
	el := c.electCoded(all, len(reps))
	switch el.outcome {
	case codedDone:
		if el.reconstructed {
			c.met.ecReconstructAE.Inc()
		}
		if c.repairCodedReplicas(b, reps, all, el, "antientropy_repair", c.met.repairsAntiEntropy) {
			c.met.aeRepaired.Inc()
		} else {
			c.met.aeClean.Inc()
		}
	case codedZero:
		// Unwritten stripe: the only repairable divergence is a corrupt
		// fragment, rewritten to the unwritten (all-zero) slot.
		repaired := false
		for _, res := range all {
			if res.err == nil && res.status == slotCorrupt {
				c.met.divergentCorrupt.Inc()
				repaired = true
				rctx, rot := c.bgTrace("antientropy_repair", "antientropy", b)
				c.repairReplica(rctx, rot, res.n, b, make([]byte, c.slotBytes), blockMeta{}, c.met.repairsAntiEntropy)
				rot.finish()
			}
		}
		if repaired {
			c.met.aeRepaired.Inc()
		} else {
			c.met.aeClean.Inc()
		}
	default:
		// Not enough reachable fragments to decide anything safely.
		c.met.aeUnavailable.Inc()
	}
}

// transferSegmentCoded moves one run of stripes to a membership-change
// target. Unlike the mirrored path — which forwards the winning slot
// verbatim — the coded path must synthesize the target's fragment:
// read every source's fragment slots, elect each stripe's winner,
// reconstruct, and re-encode the fragment for the target's position
// under the NEXT placement (the placement that owns it after the
// flip). Election uses the same possible-acks rule with the unheard
// sources (and the target itself) counted, so a transfer never pushes
// a provably-superseded version over a possibly-acknowledged one.
func (c *Cluster) transferSegmentCoded(ctx context.Context, ot *opTrace, ep *epoch, tp transferPart, lo, n int64) error {
	if ep.next == nil {
		return fmt.Errorf("pcmcluster: coded transfer outside a transition")
	}
	tIdx := nodePosition(ep.next.replicas(tp.part, c.rf), tp.target)
	if tIdx < 0 {
		return fmt.Errorf("pcmcluster: transfer target %s does not own partition %d under the next placement",
			tp.target.addr, tp.part)
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

	reads, _ := c.readSpan(ctx, ot, "source_read", srcs, lo, n)

	// Elect and re-encode per stripe. The target's own (unread) copy
	// counts as a possible fragment holder alongside failed sources —
	// dual-quorum writes reach it mid-transition — keeping the
	// possible-acks guard honest.
	nReps := len(srcs) + 1
	pushes := make([][]byte, n) // nil = nothing to push
	metas := make([]blockMeta, n)
	for i, all := range reads {
		el := c.electCoded(all, nReps)
		switch el.outcome {
		case codedDone:
			if el.reconstructed {
				c.met.ecReconstructTransfer.Inc()
			}
			dataFrags, err := c.codec.Split(el.block)
			if err != nil {
				return err
			}
			slot, err := c.encodeFragmentSlot(dataFrags, tIdx, el.winner.Version, el.winner.DataCRC)
			if err != nil {
				return err
			}
			pushes[i], metas[i] = slot, el.winner
		case codedZero:
			// Never written: leave the target's slot alone.
		default:
			// Sources below the reconstruction bar; transient — the
			// resume loop retries this segment once they recover.
			return fmt.Errorf("%w: partition %d slot %d: no version decidable from %d sources of %d possible holders",
				errTransferSources, tp.part, lo+int64(i), len(all), nReps)
		}
	}

	stripes := stripesForRange(lo, n)
	for _, s := range stripes {
		c.stripes[s].Lock()
	}
	defer func() {
		for _, s := range stripes {
			c.stripes[s].Unlock()
		}
	}()

	// Recheck the target's current fragment slots in one vectored read.
	// Fragment slots are small, so the full-slot read costs less than a
	// mirrored trailer stride and validates the whole slot.
	recheckT := time.Now()
	cur := make([]replicaRead, n)
	_, terr := c.readSlots(ctx, tp.target, lo, cur)
	ot.span("target_recheck", tp.target.addr, recheckT, terr)
	if terr != nil {
		return terr
	}

	pushT := time.Now()
	for i, ts := range cur {
		if pushes[i] == nil {
			continue
		}
		aligned := ts.meta == metas[i] && int(ts.fragIdx) == tIdx
		if ts.status == slotOK && (ts.meta.newer(metas[i]) || aligned) {
			c.met.transferSlotsSkipped.Inc()
			continue // target already at, past, or aligned with the winner
		}
		if !tp.target.admit() {
			c.noteResult(tp.target, true, errNodeDown)
			return errNodeDown
		}
		_, err := tp.target.client.WriteAtCtx(ctx, pushes[i], (lo+int64(i))*c.slotBytes)
		c.noteResult(tp.target, true, err)
		if err != nil {
			return err
		}
		c.met.transferSlotsPushed.Inc()
	}
	ot.span("push_slots", tp.target.addr, pushT, nil)
	return nil
}

// replayDrainedHintCoded re-targets one orphaned fragment hint after a
// drain. A fragment is only meaningful to the node canonically holding
// its index, so the hint goes to the new owner at that placement
// position — not to every owner like a mirrored hint.
func (c *Cluster) replayDrainedHintCoded(pl *placement, b int64, h hint) {
	hs := c.decodeStoredSlot(h.slot)
	if hs.status != slotOK || int(hs.fragIdx) >= c.rf {
		c.met.drainHintsStale.Inc()
		return
	}
	reps := pl.replicas(c.partOf(b), c.rf)
	n := reps[hs.fragIdx]
	ctx, ot := c.bgTrace("drain_hint_replay", "drain", b)
	defer ot.finish()
	nctx, cancel := context.WithTimeout(ctx, c.opTimeout)
	defer cancel()
	mu := c.stripe(b)
	mu.Lock()
	defer mu.Unlock()
	recheckT := time.Now()
	cur := make([]byte, c.slotBytes)
	stale := false
	if _, err := n.client.ReadAtCtx(nctx, cur, b*c.slotBytes); err == nil {
		if ss := c.decodeStoredSlot(cur); ss.status == slotOK {
			c.observeVersion(ss.meta.Version)
			stale = !hs.meta.newer(ss.meta)
		}
	}
	ot.span("hint_recheck", n.addr, recheckT, nil)
	if stale {
		c.met.drainHintsStale.Inc()
		return
	}
	writeT := time.Now()
	_, err := n.client.WriteAtCtx(nctx, h.slot, b*c.slotBytes)
	ot.span("hint_write", n.addr, writeT, err)
	c.noteResult(n, true, err)
	if err != nil {
		if isTransient(err) {
			c.queueHint(n, b, h.slot, h.version)
		}
		return
	}
	c.met.drainHintsReplayed.Inc()
}

// isTransient is a local shorthand for the pcmserve error class check.
func isTransient(err error) bool {
	return errors.Is(err, errNodeDown) || pcmserve.Classify(err) == pcmserve.ClassTransient
}
