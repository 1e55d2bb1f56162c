package pcmcluster

import (
	"strconv"

	"repro/internal/obs"
)

// latBoundsSeconds mirrors pcmserve's histogram scheme: power-of-two
// microsecond upper bounds from 1 µs to ~4.2 s, +Inf making 24 buckets.
var latBoundsSeconds = func() []float64 {
	out := make([]float64, 23)
	for i := range out {
		out[i] = float64(uint64(1)<<uint(i)) * 1e-6
	}
	return out
}()

// metrics holds the cluster's registered instruments.
type metrics struct {
	reg *obs.Registry
	c   *Cluster

	quorumReads, quorumWrites           *obs.Counter
	quorumFailRead, quorumFailWrite     *obs.Counter
	degradedReads, degradedWrites       *obs.Counter
	latRead, latWrite                   *obs.Histogram
	repairsRead, repairsAntiEntropy     *obs.Counter
	repairsSkipped, repairsFailed       *obs.Counter
	divergentStale, divergentCorrupt    *obs.Counter
	hintsQueued, hintsReplayed          *obs.Counter
	hintsDroppedStale, hintsDroppedFull *obs.Counter
	hintsObsolete                       *obs.Counter
	nodeTransitions                     *obs.Counter
	aeClean, aeRepaired, aeUnavailable  *obs.Counter
	aePasses, aeThrottled               *obs.Counter
	aeReadRPCs, aeSlotsRead             *obs.Counter

	// Overload response (see overload.go).
	overloadEvents       *obs.Counter
	retryBudgetExhausted *obs.Counter
	aePaused             *obs.Counter
	repairsDeferred      *obs.Counter

	// Membership lifecycle.
	joinsStarted, joinsCompleted, joinsAborted    *obs.Counter
	drainsStarted, drainsCompleted, drainsAborted *obs.Counter
	transferSegments, transferResumes             *obs.Counter
	transferSlotsPushed, transferSlotsSkipped     *obs.Counter
	drainHintsReplayed, drainHintsStale           *obs.Counter

	// Merkle anti-entropy exchange.
	mkDigestRPCs, mkSlotsFetched   *obs.Counter
	mkPartsClean, mkPartsDivergent *obs.Counter
	mkPartsUnavailable, mkFallback *obs.Counter

	// Erasure-coded placement (see coding.go / coded.go).
	ecReconstructRead, ecReconstructAE *obs.Counter
	ecReconstructTransfer              *obs.Counter
	ecReconstructFailed                *obs.Counter
	ecHedgedStraggler, ecHedgedFailure *obs.Counter
	ecFragRepairs, ecRealigned         *obs.Counter
}

func newMetrics(reg *obs.Registry, c *Cluster) *metrics {
	m := &metrics{reg: reg, c: c}

	reg.GaugeFunc("pcmcluster_nodes", "Nodes in the cluster membership.",
		func() float64 { return float64(len(c.epoch.Load().nodes)) })
	reg.GaugeFunc("pcmcluster_blocks", "Replicated block capacity.",
		func() float64 { return float64(c.blocks) })
	reg.GaugeFunc("pcmcluster_replication_factor", "Replicas per block.",
		func() float64 { return float64(c.rf) })
	reg.GaugeFunc("pcmcluster_partition_slots", "Slots per placement partition.",
		func() float64 { return float64(c.partSlots) })
	reg.GaugeFunc("pcmcluster_membership_transition",
		"Membership state machine: 0 stable, 1 joining, 2 draining.",
		func() float64 { return float64(c.epoch.Load().mode) })

	const qName = "pcmcluster_quorum_requests_total"
	const qHelp = "Quorum operations issued, by op."
	m.quorumReads = reg.Counter(qName, qHelp, obs.L("op", "read")...)
	m.quorumWrites = reg.Counter(qName, qHelp, obs.L("op", "write")...)
	const qfName = "pcmcluster_quorum_failures_total"
	const qfHelp = "Quorum operations that could not gather enough replica replies."
	m.quorumFailRead = reg.Counter(qfName, qfHelp, obs.L("op", "read")...)
	m.quorumFailWrite = reg.Counter(qfName, qfHelp, obs.L("op", "write")...)
	const dgName = "pcmcluster_degraded_quorums_total"
	const dgHelp = "Quorum operations that succeeded despite at least one replica failure or corrupt reply (failover working as designed)."
	m.degradedReads = reg.Counter(dgName, dgHelp, obs.L("op", "read")...)
	m.degradedWrites = reg.Counter(dgName, dgHelp, obs.L("op", "write")...)
	const latName = "pcmcluster_quorum_latency_seconds"
	const latHelp = "Latency from issuing a quorum operation to reaching its quorum."
	m.latRead = reg.Histogram(latName, latHelp, latBoundsSeconds, obs.L("op", "read")...)
	m.latWrite = reg.Histogram(latName, latHelp, latBoundsSeconds, obs.L("op", "write")...)

	const rrName = "pcmcluster_read_repairs_total"
	const rrHelp = "Divergent replicas rewritten from the quorum winner, by repair source."
	m.repairsRead = reg.Counter(rrName, rrHelp, obs.L("source", "read")...)
	m.repairsAntiEntropy = reg.Counter(rrName, rrHelp, obs.L("source", "antientropy")...)
	m.repairsSkipped = reg.Counter("pcmcluster_repairs_skipped_total",
		"Repairs abandoned because the stripe-locked re-check found the replica already at or past the winner (version order, data-CRC tiebreak).")
	m.repairsFailed = reg.Counter("pcmcluster_repairs_failed_total",
		"Repair writes that failed; the divergence stands until re-detected.")
	const dvName = "pcmcluster_divergent_replicas_total"
	const dvHelp = "Replica divergences detected on the read path, by cause."
	m.divergentStale = reg.Counter(dvName, dvHelp, obs.L("cause", "stale")...)
	m.divergentCorrupt = reg.Counter(dvName, dvHelp, obs.L("cause", "corrupt")...)

	const hName = "pcmcluster_hints_total"
	const hHelp = "Hinted-handoff events: writes buffered for down nodes, replays, and drops."
	m.hintsQueued = reg.Counter(hName, hHelp, obs.L("outcome", "queued")...)
	m.hintsReplayed = reg.Counter(hName, hHelp, obs.L("outcome", "replayed")...)
	m.hintsDroppedStale = reg.Counter(hName, hHelp, obs.L("outcome", "dropped_stale")...)
	m.hintsDroppedFull = reg.Counter(hName, hHelp, obs.L("outcome", "dropped_overflow")...)
	m.hintsObsolete = reg.Counter(hName, hHelp, obs.L("outcome", "dropped_obsolete")...)

	m.nodeTransitions = reg.Counter("pcmcluster_node_down_transitions_total",
		"Times the breaker marked a node down.")

	const aeName = "pcmcluster_antientropy_blocks_total"
	const aeHelp = "Span sweep outcomes per block visited (coded sweep, mirrored fallback sweep, Merkle-divergent slots)."
	m.aeClean = reg.Counter(aeName, aeHelp, obs.L("outcome", "clean")...)
	m.aeRepaired = reg.Counter(aeName, aeHelp, obs.L("outcome", "repaired")...)
	m.aeUnavailable = reg.Counter(aeName, aeHelp, obs.L("outcome", "unavailable")...)
	m.aePasses = reg.Counter("pcmcluster_antientropy_passes_total",
		"Completed anti-entropy walks of the whole block space.")
	m.aeThrottled = reg.Counter("pcmcluster_antientropy_throttled_total",
		"Span sweep chunks that waited on the read-rate budget.")
	m.aeReadRPCs = reg.Counter("pcmcluster_antientropy_read_rpcs_total",
		"Replica span reads issued by anti-entropy (span sweeps and Merkle reconciliation).")
	m.aeSlotsRead = reg.Counter("pcmcluster_antientropy_slots_read_total",
		"Slot copies those span reads covered; divided by the read RPCs, the sweep's batching factor.")

	m.overloadEvents = reg.Counter("pcmcluster_overload_events_total",
		"Typed shed verdicts (overloaded / deadline exceeded) received from nodes; proof of life, never breaker evidence.")
	m.retryBudgetExhausted = reg.Counter("pcmcluster_retry_budget_exhausted_total",
		"Replica operations abandoned because the shared retry budget was dry.")
	m.aePaused = reg.Counter("pcmcluster_antientropy_paused_total",
		"Anti-entropy sweep ticks skipped by the brownout ladder (level >= 1).")
	m.repairsDeferred = reg.Counter("pcmcluster_repairs_deferred_total",
		"Repair writes parked in the hint buffer instead of executed, because the target node or the cluster was browning out.")
	reg.GaugeFunc("pcmcluster_brownout_level",
		"Degradation ladder step: 0 normal, 1 anti-entropy paused, 2 repairs also deferred to hints.",
		func() float64 { return float64(c.brownoutLevel()) })

	const mbName = "pcmcluster_membership_changes_total"
	const mbHelp = "Membership lifecycle events, by kind and outcome."
	m.joinsStarted = reg.Counter(mbName, mbHelp, obs.L("kind", "join", "outcome", "started")...)
	m.joinsCompleted = reg.Counter(mbName, mbHelp, obs.L("kind", "join", "outcome", "completed")...)
	m.joinsAborted = reg.Counter(mbName, mbHelp, obs.L("kind", "join", "outcome", "aborted")...)
	m.drainsStarted = reg.Counter(mbName, mbHelp, obs.L("kind", "drain", "outcome", "started")...)
	m.drainsCompleted = reg.Counter(mbName, mbHelp, obs.L("kind", "drain", "outcome", "completed")...)
	m.drainsAborted = reg.Counter(mbName, mbHelp, obs.L("kind", "drain", "outcome", "aborted")...)

	m.transferSegments = reg.Counter("pcmcluster_transfer_segments_total",
		"Bulk-transfer segments pushed during membership changes.")
	m.transferResumes = reg.Counter("pcmcluster_transfer_resumes_total",
		"Bulk transfers resumed from their checkpoint after a transient interruption.")
	const tsName = "pcmcluster_transfer_slots_total"
	const tsHelp = "Per-slot bulk-transfer outcomes: pushed to the target or skipped because the target already held an equal-or-newer copy."
	m.transferSlotsPushed = reg.Counter(tsName, tsHelp, obs.L("outcome", "pushed")...)
	m.transferSlotsSkipped = reg.Counter(tsName, tsHelp, obs.L("outcome", "skipped")...)

	const dhName = "pcmcluster_drain_hints_total"
	const dhHelp = "Hints found on a drained node at fence time, by disposition."
	m.drainHintsReplayed = reg.Counter(dhName, dhHelp, obs.L("outcome", "replayed")...)
	m.drainHintsStale = reg.Counter(dhName, dhHelp, obs.L("outcome", "stale")...)

	m.mkDigestRPCs = reg.Counter("pcmcluster_merkle_digest_rpcs_total",
		"HASH_RANGE and trailer-stride RPCs issued by the Merkle exchange.")
	m.mkSlotsFetched = reg.Counter("pcmcluster_merkle_slots_fetched_total",
		"Full replica slots fetched by the Merkle exchange for reconciliation — O(divergence), not O(blocks).")
	const mpName = "pcmcluster_merkle_partitions_total"
	const mpHelp = "Merkle anti-entropy partition exchanges, by outcome."
	m.mkPartsClean = reg.Counter(mpName, mpHelp, obs.L("outcome", "clean")...)
	m.mkPartsDivergent = reg.Counter(mpName, mpHelp, obs.L("outcome", "divergent")...)
	m.mkPartsUnavailable = reg.Counter(mpName, mpHelp, obs.L("outcome", "unavailable")...)
	m.mkFallback = reg.Counter(mpName, mpHelp, obs.L("outcome", "fallback_sweep")...)

	reg.GaugeFunc("pcmcluster_storage_overhead_ratio",
		"Stored copies per data byte: RF mirrored, (K+M)/K coded.",
		func() float64 { return c.StorageOverhead() })
	if c.coded {
		reg.GaugeFunc("pcmcluster_coding_data_fragments",
			"Data fragments per stripe (K).",
			func() float64 { return float64(c.codec.K) })
		reg.GaugeFunc("pcmcluster_coding_parity_fragments",
			"Parity fragments per stripe (M).",
			func() float64 { return float64(c.codec.M) })
	}
	const ecrName = "pcmcluster_ec_reconstructions_total"
	const ecrHelp = "Degraded reconstructions: blocks decoded through parity math instead of the systematic fast path, by initiating subsystem."
	m.ecReconstructRead = reg.Counter(ecrName, ecrHelp, obs.L("source", "read")...)
	m.ecReconstructAE = reg.Counter(ecrName, ecrHelp, obs.L("source", "antientropy")...)
	m.ecReconstructTransfer = reg.Counter(ecrName, ecrHelp, obs.L("source", "transfer")...)
	m.ecReconstructFailed = reg.Counter("pcmcluster_ec_reconstruct_failures_total",
		"Reconstruction attempts that failed decode or the stripe CRC check; the read waits or fails typed, never serves the bytes.")
	const echName = "pcmcluster_ec_hedged_fanouts_total"
	const echHelp = "Coded reads that widened from the K-fragment fast path to the full stripe group, by trigger."
	m.ecHedgedStraggler = reg.Counter(echName, echHelp, obs.L("cause", "straggler")...)
	m.ecHedgedFailure = reg.Counter(echName, echHelp, obs.L("cause", "failure")...)
	m.ecFragRepairs = reg.Counter("pcmcluster_ec_fragment_repairs_total",
		"Fragment slots rewritten from a reconstructed stripe (all repair paths).")
	m.ecRealigned = reg.Counter("pcmcluster_ec_fragments_realigned_total",
		"Current-version fragments rewritten because a membership reshuffle left them stored under a stale index.")

	return m
}

// registerNode installs one node's per-address instruments. Counter
// registration is idempotent, so an address that drains out and later
// rejoins keeps accumulating on the same series; the gauges resolve
// the node by address at collection time for the same reason — the
// first-registered callback must keep describing whoever currently
// holds the address.
func (m *metrics) registerNode(n *node) {
	addr := n.addr
	labels := obs.L("node", addr)
	m.reg.GaugeFunc("pcmcluster_node_up",
		"Breaker verdict per node: 1 up, 0 down or removed.",
		func() float64 {
			if cur := m.c.nodeByAddr(addr); cur != nil && cur.currentState() == NodeUp {
				return 1
			}
			return 0
		}, labels...)
	m.reg.GaugeFunc("pcmcluster_node_hints_pending",
		"Hinted writes buffered for this node.",
		func() float64 {
			if cur := m.c.nodeByAddr(addr); cur != nil {
				return float64(cur.hintCount())
			}
			return 0
		}, labels...)
	const nopName = "pcmcluster_node_ops_total"
	const nopHelp = "Replica operations sent per node, by op."
	const nerrName = "pcmcluster_node_errors_total"
	const nerrHelp = "Replica operations that failed per node (any error class)."
	n.mReads = m.reg.Counter(nopName, nopHelp, obs.L("node", addr, "op", "read")...)
	n.mWrites = m.reg.Counter(nopName, nopHelp, obs.L("node", addr, "op", "write")...)
	n.mErrs = m.reg.Counter(nerrName, nerrHelp, labels...)
	if !m.c.traceOff {
		const rpName = "pcmcluster_node_reply_seconds"
		const rpHelp = "Replica reply round-trips per node, split by whether the reply counted toward its quorum or trailed it (the straggler tail). Buckets carry trace-ID exemplars."
		n.latReply = m.reg.Histogram(rpName, rpHelp, latBoundsSeconds,
			obs.L("node", addr, "position", "quorum")...)
		n.latReplyStraggler = m.reg.Histogram(rpName, rpHelp, latBoundsSeconds,
			obs.L("node", addr, "position", "straggler")...)
	}
}

// noteSlowQuorum counts one slow-quorum log entry on a per-straggler,
// per-class counter. Series are created lazily — the straggler set is
// only known at runtime — and Counter registration is idempotent, so
// repeat offenders accumulate on one series.
func (m *metrics) noteSlowQuorum(straggler, class string) {
	m.reg.Counter("pcmcluster_slow_quorums_total",
		"Quorum operations that failed or crossed the slow-quorum threshold, by attributed straggler node and error class.",
		obs.L("straggler", straggler, "class", class)...).Inc()
}

// nodeByAddr finds the current member with the given address, nil if
// none (drained out, or an aborted joiner).
func (c *Cluster) nodeByAddr(addr string) *node {
	for _, n := range c.epoch.Load().nodes {
		if n.addr == addr {
			return n
		}
	}
	return nil
}

// NodeStats is one node's slice of a ClusterStats snapshot.
type NodeStats struct {
	Addr         string `json:"addr"`
	State        string `json:"state"`
	Role         string `json:"role"`
	Reads        uint64 `json:"reads"`
	Writes       uint64 `json:"writes"`
	Errors       uint64 `json:"errors"`
	HintsPending int    `json:"hints_pending"`
}

// ClusterStats is a JSON-friendly snapshot of the cluster's counters —
// the loadgen report and test assertions read this instead of scraping
// the exposition text.
type ClusterStats struct {
	Blocks            int64   `json:"blocks"`
	ReplicationFactor int     `json:"replication_factor"`
	WriteQuorum       int     `json:"write_quorum"`
	ReadQuorum        int     `json:"read_quorum"`
	PartitionSlots    int64   `json:"partition_slots"`
	Coding            string  `json:"coding"`
	StorageOverhead   float64 `json:"storage_overhead"`

	Membership MembershipStatus `json:"membership"`

	QuorumReads        uint64 `json:"quorum_reads"`
	QuorumWrites       uint64 `json:"quorum_writes"`
	ReadQuorumFailures uint64 `json:"read_quorum_failures"`
	WriteQuorumFails   uint64 `json:"write_quorum_failures"`
	DegradedReads      uint64 `json:"degraded_reads"`
	DegradedWrites     uint64 `json:"degraded_writes"`

	ReadRepairs        uint64 `json:"read_repairs"`
	AntiEntropyRepairs uint64 `json:"antientropy_repairs"`
	RepairsSkipped     uint64 `json:"repairs_skipped"`
	RepairsFailed      uint64 `json:"repairs_failed"`
	DivergentStale     uint64 `json:"divergent_stale"`
	DivergentCorrupt   uint64 `json:"divergent_corrupt"`

	HintsQueued          uint64 `json:"hints_queued"`
	HintsReplayed        uint64 `json:"hints_replayed"`
	HintsDroppedStale    uint64 `json:"hints_dropped_stale"`
	HintsDroppedFull     uint64 `json:"hints_dropped_overflow"`
	HintsDroppedObsolete uint64 `json:"hints_dropped_obsolete"`
	NodeDownTransitions  uint64 `json:"node_down_transitions"`

	AntiEntropyClean       uint64 `json:"antientropy_clean"`
	AntiEntropyUnavailable uint64 `json:"antientropy_unavailable"`
	AntiEntropyPasses      uint64 `json:"antientropy_passes"`
	AntiEntropyThrottled   uint64 `json:"antientropy_throttled"`
	AntiEntropyReadRPCs    uint64 `json:"antientropy_read_rpcs"`
	AntiEntropySlotsRead   uint64 `json:"antientropy_slots_read"`

	// Overload response: typed shed verdicts received, ops dropped on a
	// dry retry budget, brownout actions taken, and the current ladder
	// step.
	OverloadEvents       uint64 `json:"overload_events"`
	RetryBudgetExhausted uint64 `json:"retry_budget_exhausted"`
	AntiEntropyPaused    uint64 `json:"antientropy_paused"`
	RepairsDeferred      uint64 `json:"repairs_deferred"`
	BrownoutLevel        int    `json:"brownout_level"`

	JoinsStarted    uint64 `json:"joins_started"`
	JoinsCompleted  uint64 `json:"joins_completed"`
	JoinsAborted    uint64 `json:"joins_aborted"`
	DrainsStarted   uint64 `json:"drains_started"`
	DrainsCompleted uint64 `json:"drains_completed"`
	DrainsAborted   uint64 `json:"drains_aborted"`

	TransferSegments     uint64 `json:"transfer_segments"`
	TransferResumes      uint64 `json:"transfer_resumes"`
	TransferSlotsPushed  uint64 `json:"transfer_slots_pushed"`
	TransferSlotsSkipped uint64 `json:"transfer_slots_skipped"`
	DrainHintsReplayed   uint64 `json:"drain_hints_replayed"`
	DrainHintsStale      uint64 `json:"drain_hints_stale"`

	MerkleDigestRPCs       uint64 `json:"merkle_digest_rpcs"`
	MerkleSlotsFetched     uint64 `json:"merkle_slots_fetched"`
	MerklePartsClean       uint64 `json:"merkle_parts_clean"`
	MerklePartsDivergent   uint64 `json:"merkle_parts_divergent"`
	MerklePartsUnavailable uint64 `json:"merkle_parts_unavailable"`
	MerkleFallbackSweeps   uint64 `json:"merkle_fallback_sweeps"`

	// Erasure-coded placement.
	ECReconstructions     uint64 `json:"ec_reconstructions"`
	ECReconstructFailures uint64 `json:"ec_reconstruct_failures"`
	ECHedgedFanouts       uint64 `json:"ec_hedged_fanouts"`
	ECFragmentRepairs     uint64 `json:"ec_fragment_repairs"`
	ECFragmentsRealigned  uint64 `json:"ec_fragments_realigned"`

	// SlowQuorums counts ops that entered the slow-quorum log; SLOs
	// snapshots the availability and latency objectives (empty when
	// disabled).
	SlowQuorums uint64          `json:"slow_quorums"`
	SLOs        []obs.SLOStatus `json:"slos,omitempty"`

	Nodes []NodeStats `json:"nodes"`
}

// Stats snapshots the cluster counters.
func (c *Cluster) Stats() ClusterStats {
	m := c.met
	st := ClusterStats{
		Blocks:            c.blocks,
		ReplicationFactor: c.rf,
		WriteQuorum:       c.w,
		ReadQuorum:        c.r,
		PartitionSlots:    c.partSlots,
		Coding:            c.Coding(),
		StorageOverhead:   c.StorageOverhead(),

		Membership: c.Membership(),

		QuorumReads:        m.quorumReads.Value(),
		QuorumWrites:       m.quorumWrites.Value(),
		ReadQuorumFailures: m.quorumFailRead.Value(),
		WriteQuorumFails:   m.quorumFailWrite.Value(),
		DegradedReads:      m.degradedReads.Value(),
		DegradedWrites:     m.degradedWrites.Value(),

		ReadRepairs:        m.repairsRead.Value(),
		AntiEntropyRepairs: m.repairsAntiEntropy.Value(),
		RepairsSkipped:     m.repairsSkipped.Value(),
		RepairsFailed:      m.repairsFailed.Value(),
		DivergentStale:     m.divergentStale.Value(),
		DivergentCorrupt:   m.divergentCorrupt.Value(),

		HintsQueued:          m.hintsQueued.Value(),
		HintsReplayed:        m.hintsReplayed.Value(),
		HintsDroppedStale:    m.hintsDroppedStale.Value(),
		HintsDroppedFull:     m.hintsDroppedFull.Value(),
		HintsDroppedObsolete: m.hintsObsolete.Value(),
		NodeDownTransitions:  m.nodeTransitions.Value(),

		AntiEntropyClean:       m.aeClean.Value(),
		AntiEntropyUnavailable: m.aeUnavailable.Value(),
		AntiEntropyPasses:      m.aePasses.Value(),
		AntiEntropyThrottled:   m.aeThrottled.Value(),
		AntiEntropyReadRPCs:    m.aeReadRPCs.Value(),
		AntiEntropySlotsRead:   m.aeSlotsRead.Value(),

		OverloadEvents:       m.overloadEvents.Value(),
		RetryBudgetExhausted: m.retryBudgetExhausted.Value(),
		AntiEntropyPaused:    m.aePaused.Value(),
		RepairsDeferred:      m.repairsDeferred.Value(),
		BrownoutLevel:        c.brownoutLevel(),

		JoinsStarted:    m.joinsStarted.Value(),
		JoinsCompleted:  m.joinsCompleted.Value(),
		JoinsAborted:    m.joinsAborted.Value(),
		DrainsStarted:   m.drainsStarted.Value(),
		DrainsCompleted: m.drainsCompleted.Value(),
		DrainsAborted:   m.drainsAborted.Value(),

		TransferSegments:     m.transferSegments.Value(),
		TransferResumes:      m.transferResumes.Value(),
		TransferSlotsPushed:  m.transferSlotsPushed.Value(),
		TransferSlotsSkipped: m.transferSlotsSkipped.Value(),
		DrainHintsReplayed:   m.drainHintsReplayed.Value(),
		DrainHintsStale:      m.drainHintsStale.Value(),

		MerkleDigestRPCs:       m.mkDigestRPCs.Value(),
		MerkleSlotsFetched:     m.mkSlotsFetched.Value(),
		MerklePartsClean:       m.mkPartsClean.Value(),
		MerklePartsDivergent:   m.mkPartsDivergent.Value(),
		MerklePartsUnavailable: m.mkPartsUnavailable.Value(),
		MerkleFallbackSweeps:   m.mkFallback.Value(),

		ECReconstructions:     m.ecReconstructRead.Value() + m.ecReconstructAE.Value() + m.ecReconstructTransfer.Value(),
		ECReconstructFailures: m.ecReconstructFailed.Value(),
		ECHedgedFanouts:       m.ecHedgedStraggler.Value() + m.ecHedgedFailure.Value(),
		ECFragmentRepairs:     m.ecFragRepairs.Value(),
		ECFragmentsRealigned:  m.ecRealigned.Value(),

		SlowQuorums: c.SlowQuorumTotal(),
	}
	if c.sloAvail != nil {
		st.SLOs = append(st.SLOs, c.sloAvail.Status(), c.sloLat.Status())
	}
	for _, n := range c.epoch.Load().nodes {
		st.Nodes = append(st.Nodes, NodeStats{
			Addr:         n.addr,
			State:        n.currentState().String(),
			Role:         n.currentRole().String(),
			Reads:        n.mReads.Value(),
			Writes:       n.mWrites.Value(),
			Errors:       n.mErrs.Value(),
			HintsPending: n.hintCount(),
		})
	}
	return st
}

// Registry returns the metrics registry backing this cluster, for
// mounting on an obs.AdminHandler.
func (c *Cluster) Registry() *obs.Registry { return c.met.reg }

// Health reports breaker state per node for /healthz: healthy while
// enough read-serving nodes (the authoritative placement's members)
// are up to meet both quorums.
func (c *Cluster) Health() obs.HealthReport {
	ep := c.epoch.Load()
	up := 0
	rep := obs.HealthReport{}
	for _, n := range ep.nodes {
		st := n.currentState()
		if st == NodeUp && containsNode(ep.cur.nodes, n) {
			up++
		}
		rep.Components = append(rep.Components, obs.ComponentHealth{
			Name:   "node/" + n.addr,
			State:  st.String() + "/" + n.currentRole().String(),
			Detail: strconv.Itoa(n.hintCount()) + " hints pending",
		})
	}
	rep.Healthy = up >= c.w && up >= c.r
	// Brownout is informational like the SLO burn state: a degraded-mode
	// cluster still serves quorums, it just sheds background work.
	rep.Components = append(rep.Components, obs.ComponentHealth{
		Name:   "overload",
		State:  brownoutName(c.brownoutLevel()),
		Detail: strconv.FormatUint(c.met.overloadEvents.Value(), 10) + " shed verdicts total",
	})
	// SLO burn state is informational: a burning objective should page,
	// not fail readiness (see obs.SLO.Health).
	if c.sloAvail != nil {
		rep.Components = append(rep.Components, c.sloAvail.Health(), c.sloLat.Health())
	}
	return rep
}

// ClusterzInfo is the /clusterz summary body: the stats snapshot plus
// the slow-quorum log with straggler attribution.
type ClusterzInfo struct {
	Stats       ClusterStats      `json:"stats"`
	SlowQuorums []SlowQuorumEntry `json:"slow_quorums,omitempty"`
}

// Clusterz assembles the /clusterz summary.
func (c *Cluster) Clusterz() ClusterzInfo {
	return ClusterzInfo{Stats: c.Stats(), SlowQuorums: c.SlowQuorums()}
}
