package pcmcluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ecstripe"
	"repro/internal/obs"
	"repro/internal/pcmlive"
	"repro/internal/pcmserve"
)

// Typed cluster errors; errors.Is-able through every wrap.
var (
	// ErrClosed: the cluster was closed.
	ErrClosed = errors.New("pcmcluster: cluster closed")
	// ErrReadQuorum: too few structurally valid replica replies.
	ErrReadQuorum = errors.New("pcmcluster: read quorum not met")
	// ErrWriteQuorum: too few replica acknowledgements. The write may
	// still have applied on some replicas; callers must treat the
	// block's content as undefined until a later write acknowledges.
	ErrWriteQuorum = errors.New("pcmcluster: write quorum not met")

	// errNodeDown is a replica-level fast-fail when the breaker holds a
	// node down; it classifies as transient.
	errNodeDown = errors.New("pcmcluster: node marked down")
)

const writeStripes = 1024

// Config assembles a Cluster. Zero values take documented defaults.
type Config struct {
	// Nodes lists the pcmserve node addresses. Placement depends only
	// on the set of addresses, not their order.
	Nodes []string
	// DialNode overrides how node connections are made (tests). The
	// default dials a pcmserve.RetryClient tuned for fast failover
	// (2 attempts, OpTimeout per attempt). Join dials through the same
	// function.
	DialNode func(addr string) (NodeClient, error)

	// Coding selects the redundancy scheme. "" or "rf" mirrors each
	// block onto ReplicationFactor nodes; "rs:K+M" Reed-Solomon-stripes
	// each block into K data + M parity fragments on K+M nodes (see
	// coding.go). Coded mode derives ReplicationFactor = K+M,
	// WriteQuorum = K+⌈M/2⌉, and ReadQuorum = K; setting any of those
	// to a conflicting value is a configuration error.
	Coding string

	// ReplicationFactor is replicas per block (default min(3, nodes)).
	ReplicationFactor int
	// WriteQuorum (W) acknowledgements make a write durable;
	// ReadQuorum (R) valid replies serve a read. Defaults RF/2+1 each.
	// W+R > RF is enforced so read and write sets always intersect.
	WriteQuorum int
	ReadQuorum  int

	// Blocks fixes the replicated capacity; 0 probes every node's
	// STATS and uses the smallest node's capacity in SlotBytes slots.
	// The probe requires every node to answer (see probeCapacity); set
	// Blocks explicitly to start against a fleet with a node down.
	Blocks int64

	// PartitionSlots is the placement granularity: consecutive runs of
	// this many slots share their replica set, making a partition the
	// unit of membership transfer and Merkle anti-entropy exchange. The
	// default (defaultPartitionSlots) is 1 slot per partition until the
	// block count exceeds maxPartitions, then the smallest power of two
	// keeping the partition count bounded.
	PartitionSlots int64

	// TransferSegmentSlots is the membership bulk-transfer batch: slots
	// moved per checkpointed segment (default 64).
	TransferSegmentSlots int64

	// OpTimeout bounds each replica attempt (default 1s).
	OpTimeout time.Duration
	// FailThreshold consecutive transient failures mark a node down
	// (default 2); ProbeInterval spaces half-open probes (default 500ms).
	FailThreshold int
	ProbeInterval time.Duration

	// HintCapacity bounds buffered writes per down node (default 4096);
	// HintReplayInterval paces the replay loop (default 200ms).
	HintCapacity       int
	HintReplayInterval time.Duration

	// AntiEntropyInterval is the per-partition cadence of the background
	// reconciliation sweep; 0 disables it.
	AntiEntropyInterval time.Duration
	// AntiEntropySweepBytesPerSec caps how fast the span sweep reads
	// replica data (default 4 MiB/s; negative disables the cap). It
	// meters the coded sweep and the mirrored fallback sweep, chunk by
	// chunk: each chunk's reads across all replicas are taken from a
	// bucket whose burst is one second's worth, and a chunk never
	// exceeds that burst; New rejects a budget below one slot across
	// every replica, which no chunk could fit. The Merkle exchange,
	// and its reads of the divergent slots it finds, are
	// O(divergence) and not metered.
	AntiEntropySweepBytesPerSec float64
	// DisableMerkleExchange forces the span sweep even when every
	// replica supports the range ops.
	DisableMerkleExchange bool

	// Seed decorrelates version tiebreak tags and node retry jitter
	// between cluster clients. The default is a fresh random value per
	// process, so two clients never share a tiebreak tag unless both
	// are configured with the same explicit seed.
	Seed uint64

	// Registry receives the pcmcluster_* instruments (default: a
	// private registry, reachable via Cluster.Registry).
	Registry *obs.Registry

	// TraceSampleEvery keeps one in N fast foreground traces in the
	// cluster trace log (default 64; 1 keeps all — tests and admin
	// tooling want 1). Slow traces are always kept.
	TraceSampleEvery int
	// SlowQuorumThreshold is the time-to-quorum past which a foreground
	// op lands in the slow-quorum log with straggler attribution
	// (default 50ms; negative disables the log). It also serves as the
	// trace log's slow threshold.
	SlowQuorumThreshold time.Duration
	// DisableTracing turns the whole trace plane off — no trace IDs on
	// the wire, no span collection, no per-node reply histograms, no
	// slow-quorum log. Metrics and SLOs still record. This is the
	// baseline for measuring tracing overhead.
	DisableTracing bool

	// SLOObjective is the availability target: the fraction of quorum
	// ops that must succeed (default 0.999; negative disables both
	// SLOs).
	SLOObjective float64
	// SLOLatencyTarget is the latency objective's good/bad cut: a
	// successful op counts good when its time-to-quorum is at or under
	// this (default 100ms).
	SLOLatencyTarget time.Duration
	// SLOWindow is the rolling window burn rate is computed over
	// (default 5m).
	SLOWindow time.Duration
}

func (cfg Config) withDefaults() Config {
	if cfg.ReplicationFactor <= 0 {
		cfg.ReplicationFactor = min(3, len(cfg.Nodes))
	}
	if cfg.WriteQuorum <= 0 {
		cfg.WriteQuorum = cfg.ReplicationFactor/2 + 1
	}
	if cfg.ReadQuorum <= 0 {
		cfg.ReadQuorum = cfg.ReplicationFactor/2 + 1
	}
	if cfg.TransferSegmentSlots <= 0 {
		cfg.TransferSegmentSlots = 64
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = time.Second
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 2
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.HintCapacity <= 0 {
		cfg.HintCapacity = 4096
	}
	if cfg.HintReplayInterval <= 0 {
		cfg.HintReplayInterval = 200 * time.Millisecond
	}
	if cfg.AntiEntropySweepBytesPerSec == 0 {
		cfg.AntiEntropySweepBytesPerSec = 4 << 20
	}
	if cfg.Seed == 0 {
		cfg.Seed = randomSeed()
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.TraceSampleEvery <= 0 {
		cfg.TraceSampleEvery = 64
	}
	if cfg.SlowQuorumThreshold == 0 {
		cfg.SlowQuorumThreshold = 50 * time.Millisecond
	}
	if cfg.SLOObjective == 0 {
		cfg.SLOObjective = 0.999
	}
	if cfg.SLOLatencyTarget <= 0 {
		cfg.SLOLatencyTarget = 100 * time.Millisecond
	}
	if cfg.SLOWindow <= 0 {
		cfg.SLOWindow = 5 * time.Minute
	}
	return cfg
}

// Cluster is a client-embedded replication layer over pcmserve nodes.
// It is safe for concurrent use.
type Cluster struct {
	rf     int
	w, r   int
	blocks int64

	// Coded placement (see coding.go): codec is non-nil iff coded.
	// fragBytes is the per-fragment payload (DataBytes/K) and slotBytes
	// the per-node stored slot size — fragment + trailer when coded,
	// SlotBytes when mirrored. Every replica offset and buffer in this
	// package sizes off slotBytes so both modes share one data path.
	coded     bool
	codec     *ecstripe.Codec
	fragBytes int
	slotBytes int64
	// hedgeRTT is the EWMA (nanoseconds) of fragment reply round-trips
	// driving the coded read's straggler cutoff (see coded.go).
	hedgeRTT atomic.Uint64

	// partSlots is the placement granularity (see Config.PartitionSlots);
	// segSlots the bulk-transfer segment size.
	partSlots int64
	segSlots  int64

	opTimeout     time.Duration
	failThreshold int
	probeInterval time.Duration
	hintCap       int
	dial          func(addr string) (NodeClient, error)

	// epoch is the membership snapshot every op works against; memMu
	// serializes membership changes (one Join or Drain at a time) and
	// guards retired. Retired nodes stay out of every placement but
	// their clients remain open until Close, so background stragglers
	// holding an old epoch never touch a closed connection.
	epoch   atomic.Pointer[epoch]
	memMu   sync.Mutex
	retired []*node
	// prog is the in-flight membership transfer's checkpoint (nil when
	// stable), read by Membership for progress reporting.
	prog atomic.Pointer[transferProgress]

	// aeBudget meters the span sweep's replica reads, coded and
	// mirrored fallback alike, one chunk at a time (nil = unmetered);
	// disableMerkle forces that sweep on mirrored clusters too.
	aeBudget      *pcmlive.Budget
	disableMerkle bool

	// verCounter, shifted over verTag, produces the version stamps. It
	// is a hybrid logical clock — max(wall-clock µs, last+1), seeded
	// from the clock at startup and ratcheted past every version
	// observed on any replica — so a restarted or second client keeps
	// stamping above everything already stored; a plain in-memory
	// counter would restart at 0 and lose last-writer-wins to its own
	// predecessor's data. The tag byte breaks ties between distinct
	// clients, and exact ties fall back to the data CRC (blockMeta.newer).
	verCounter atomic.Uint64
	verTag     uint8

	// stripes serialize every mutation of one block issued by this
	// client — quorum writes (held until all replicas resolve, not
	// just W), read-repairs, hint replays, and membership transfer
	// pushes — so a repair's re-check-then-write can never clobber a
	// newer in-flight write.
	stripes [writeStripes]sync.Mutex

	met *metrics

	// brownout meters typed overload verdicts into the degradation
	// ladder (see overload.go).
	brownout brownoutMeter

	// Trace plane (see trace.go). traceOff disables it wholesale;
	// slowQuorumThreshold gates the slow-quorum log.
	traces              *obs.TraceLog
	slowQ               *slowQuorumLog
	slowQuorumThreshold time.Duration
	traceOff            bool

	// SLO layer: availability (quorum ops succeed) and latency
	// (time-to-quorum under target). Nil when disabled.
	sloAvail, sloLat *obs.SLO
	sloLatTarget     time.Duration

	closed atomic.Bool
	// opGate lets Close wait for in-flight public ops (read lock) to
	// finish spawning background work before it waits on bg.
	opGate sync.RWMutex
	stop   chan struct{}
	ctx    context.Context
	cancel context.CancelFunc
	bg     sync.WaitGroup // straggler drains + repairs
	loops  sync.WaitGroup // hint drainer + anti-entropy sweeper
}

// New validates cfg, connects to every node, sizes the cluster, and
// starts the background loops.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("pcmcluster: at least one node required")
	}
	seen := make(map[string]bool, len(cfg.Nodes))
	for _, a := range cfg.Nodes {
		if a == "" {
			return nil, errors.New("pcmcluster: empty node address")
		}
		if seen[a] {
			return nil, fmt.Errorf("pcmcluster: duplicate node address %q", a)
		}
		seen[a] = true
	}
	codeK, codeM, coded, err := parseCoding(cfg.Coding)
	if err != nil {
		return nil, err
	}
	if coded {
		// The codec fixes the quorum geometry: rf = K+M fragment slots,
		// W = K+⌈M/2⌉ fragment acks, R = K valid fragments. Explicit
		// conflicting values are configuration errors, not overrides —
		// a mirrored quorum count applied to fragments would silently
		// weaken (or break) the intersection guarantee.
		ecRF, ecW, ecR := codeK+codeM, codeK+(codeM+1)/2, codeK
		if cfg.ReplicationFactor != 0 && cfg.ReplicationFactor != ecRF {
			return nil, fmt.Errorf("pcmcluster: coding %s implies replication factor %d, conflicting with configured %d",
				cfg.Coding, ecRF, cfg.ReplicationFactor)
		}
		if cfg.WriteQuorum != 0 && cfg.WriteQuorum != ecW {
			return nil, fmt.Errorf("pcmcluster: coding %s implies write quorum %d, conflicting with configured %d",
				cfg.Coding, ecW, cfg.WriteQuorum)
		}
		if cfg.ReadQuorum != 0 && cfg.ReadQuorum != ecR {
			return nil, fmt.Errorf("pcmcluster: coding %s implies read quorum %d, conflicting with configured %d",
				cfg.Coding, ecR, cfg.ReadQuorum)
		}
		cfg.ReplicationFactor, cfg.WriteQuorum, cfg.ReadQuorum = ecRF, ecW, ecR
	}
	cfg = cfg.withDefaults()
	if cfg.ReplicationFactor > len(cfg.Nodes) {
		return nil, fmt.Errorf("pcmcluster: replication factor %d exceeds %d nodes",
			cfg.ReplicationFactor, len(cfg.Nodes))
	}
	rf := cfg.ReplicationFactor
	if cfg.WriteQuorum > rf || cfg.ReadQuorum > rf {
		return nil, fmt.Errorf("pcmcluster: quorums W=%d R=%d exceed replication factor %d",
			cfg.WriteQuorum, cfg.ReadQuorum, rf)
	}
	if cfg.WriteQuorum+cfg.ReadQuorum <= rf {
		return nil, fmt.Errorf("pcmcluster: W=%d + R=%d must exceed replication factor %d or reads can miss acknowledged writes",
			cfg.WriteQuorum, cfg.ReadQuorum, rf)
	}
	if cfg.PartitionSlots < 0 {
		return nil, fmt.Errorf("pcmcluster: negative partition slots %d", cfg.PartitionSlots)
	}

	dial := cfg.DialNode
	if dial == nil {
		opTimeout := cfg.OpTimeout
		seed := cfg.Seed
		// One retry budget spans every node connection this cluster
		// client opens: retries refill at ~10% of successes, so a
		// cluster-wide brownout cannot be amplified into a retry storm.
		// The burst is generous — isolated failures retry freely.
		budget := pcmserve.NewRetryBudget(0.1, 256)
		dial = func(addr string) (NodeClient, error) {
			return pcmserve.DialRetry(addr, pcmserve.RetryConfig{
				MaxReadAttempts:  2,
				MaxWriteAttempts: 2,
				BaseBackoff:      time.Millisecond,
				MaxBackoff:       50 * time.Millisecond,
				OpTimeout:        opTimeout,
				Seed:             seed ^ nodeSeed(addr),
				Budget:           budget,
			})
		}
	}

	c := &Cluster{
		rf:            rf,
		w:             cfg.WriteQuorum,
		r:             cfg.ReadQuorum,
		blocks:        cfg.Blocks,
		segSlots:      cfg.TransferSegmentSlots,
		opTimeout:     cfg.OpTimeout,
		failThreshold: cfg.FailThreshold,
		probeInterval: cfg.ProbeInterval,
		hintCap:       cfg.HintCapacity,
		dial:          dial,
		verTag:        uint8(mix64(cfg.Seed)),
		stop:          make(chan struct{}),
	}
	c.slotBytes = SlotBytes
	if coded {
		codec, err := ecstripe.NewCodec(codeK, codeM)
		if err != nil {
			return nil, err
		}
		c.coded = true
		c.codec = codec
		c.fragBytes = DataBytes / codeK
		c.slotBytes = int64(c.fragBytes + ecstripe.FragTrailerBytes)
		c.hedgeRTT.Store(uint64(hedgeInitRTT))
	}
	if cfg.AntiEntropySweepBytesPerSec > 0 {
		// The bucket's burst is one second's worth, and the sweep's
		// smallest take is one slot from every replica: a budget below
		// that could never grant it, and the sweep would stall for good.
		if floor := float64(int64(c.rf) * c.slotBytes); cfg.AntiEntropySweepBytesPerSec < floor {
			return nil, fmt.Errorf("pcmcluster: anti-entropy budget %g B/s is below one slot across %d replicas (%g B)",
				cfg.AntiEntropySweepBytesPerSec, c.rf, floor)
		}
		c.aeBudget = pcmlive.NewBudget(cfg.AntiEntropySweepBytesPerSec, cfg.AntiEntropySweepBytesPerSec)
	}
	c.disableMerkle = cfg.DisableMerkleExchange
	c.verCounter.Store(uint64(time.Now().UnixMicro()))
	c.ctx, c.cancel = context.WithCancel(context.Background())
	var nodes []*node
	for _, addr := range cfg.Nodes {
		nc, err := dial(addr)
		if err != nil {
			for _, n := range nodes {
				n.client.Close()
			}
			return nil, fmt.Errorf("pcmcluster: dial node %s: %w", addr, err)
		}
		nodes = append(nodes, newNode(addr, nc, cfg.FailThreshold, cfg.ProbeInterval, cfg.HintCapacity))
	}

	if c.blocks == 0 {
		if err := c.probeCapacity(nodes); err != nil {
			for _, n := range nodes {
				n.client.Close()
			}
			return nil, err
		}
	}
	c.partSlots = cfg.PartitionSlots
	if c.partSlots == 0 {
		c.partSlots = defaultPartitionSlots(c.blocks)
	}

	pl := newPlacement(c.partSlots, nodes)
	c.epoch.Store(&epoch{gen: 1, nodes: nodes, cur: pl, mode: modeStable})
	c.traceOff = cfg.DisableTracing
	c.slowQuorumThreshold = cfg.SlowQuorumThreshold
	c.traces = obs.NewTraceLog(obs.TraceLogConfig{
		SampleEvery:   cfg.TraceSampleEvery,
		SlowThreshold: cfg.SlowQuorumThreshold,
	})
	c.slowQ = newSlowQuorumLog(64)
	if cfg.SLOObjective > 0 {
		c.sloLatTarget = cfg.SLOLatencyTarget
		c.sloAvail = obs.NewSLO(cfg.Registry, obs.SLOConfig{
			Name:      "pcmcluster_availability",
			Help:      "Quorum operations by outcome (good = quorum met).",
			Objective: cfg.SLOObjective,
			Window:    cfg.SLOWindow,
		})
		c.sloLat = obs.NewSLO(cfg.Registry, obs.SLOConfig{
			Name: "pcmcluster_latency",
			Help: fmt.Sprintf("Successful quorum operations by latency verdict (good = quorum within %v).",
				cfg.SLOLatencyTarget),
			Objective: cfg.SLOObjective,
			Window:    cfg.SLOWindow,
		})
	}
	c.met = newMetrics(cfg.Registry, c)
	for _, n := range nodes {
		c.met.registerNode(n)
	}

	c.loops.Add(1)
	go c.drainLoop(cfg.HintReplayInterval)
	if cfg.AntiEntropyInterval > 0 {
		c.loops.Add(1)
		go c.antiEntropyLoop(cfg.AntiEntropyInterval)
	}
	return c, nil
}

// probeCapacity sizes the cluster from the smallest node. Every
// configured node must answer: sizing from the smallest *reachable*
// node would overshoot an unreachable smaller one, and once it came
// back every write, hint, and repair beyond its capacity would fail
// permanently — its blocks stuck at RF-1 durability with no alarm. To
// start against a fleet with a node known down, set Config.Blocks
// explicitly.
func (c *Cluster) probeCapacity(nodes []*node) error {
	type probe struct {
		idx  int
		size int64
		err  error
	}
	results := make(chan probe, len(nodes))
	for i, n := range nodes {
		go func(i int, n *node) {
			st, err := n.client.Stats()
			results <- probe{idx: i, size: st.SizeBytes, err: err}
		}(i, n)
	}
	minSize := int64(-1)
	var unreachable []string
	for range nodes {
		p := <-results
		if p.err != nil {
			unreachable = append(unreachable, fmt.Sprintf("%s (%v)", nodes[p.idx].addr, p.err))
			continue
		}
		if minSize < 0 || p.size < minSize {
			minSize = p.size
		}
	}
	if len(unreachable) > 0 {
		sort.Strings(unreachable)
		return fmt.Errorf("pcmcluster: capacity probe needs every node, %d unreachable: %s (set Config.Blocks to size the cluster without probing)",
			len(unreachable), strings.Join(unreachable, "; "))
	}
	c.blocks = minSize / c.slotBytes
	if c.blocks < 1 {
		return fmt.Errorf("pcmcluster: smallest node (%d bytes) cannot hold one %d-byte slot", minSize, c.slotBytes)
	}
	return nil
}

// Blocks returns the replicated block capacity.
func (c *Cluster) Blocks() int64 { return c.blocks }

// numParts returns how many placement partitions cover the block space.
func (c *Cluster) numParts() int64 {
	return (c.blocks + c.partSlots - 1) / c.partSlots
}

// partOf maps a block to its placement partition.
func (c *Cluster) partOf(b int64) int64 { return b / c.partSlots }

// partSpan returns partition p's block range (the last partition may
// be short).
func (c *Cluster) partSpan(p int64) (lo, n int64) {
	lo = p * c.partSlots
	n = c.partSlots
	if lo+n > c.blocks {
		n = c.blocks - lo
	}
	return lo, n
}

// Close stops the background loops, waits for in-flight work (any
// running Join or Drain aborts), and closes every node connection —
// retired nodes included.
func (c *Cluster) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return ErrClosed
	}
	close(c.stop)
	c.loops.Wait()
	c.cancel()
	// Wait for public ops to finish spawning background work, then for
	// that work itself.
	c.opGate.Lock()
	//lint:ignore SA2001 the Lock/Unlock pair is a barrier for in-flight ops, not a critical section
	c.opGate.Unlock()
	c.bg.Wait()
	// An in-flight Join/Drain holds memMu until its transfer notices
	// c.stop and unwinds; taking the lock here means no membership
	// change is mid-flight while connections close.
	c.memMu.Lock()
	defer c.memMu.Unlock()
	var firstErr error
	closeNode := func(n *node) {
		if err := n.client.Close(); err != nil && firstErr == nil && !errors.Is(err, pcmserve.ErrClosed) {
			firstErr = err
		}
	}
	for _, n := range c.epoch.Load().nodes {
		closeNode(n)
	}
	for _, n := range c.retired {
		closeNode(n)
	}
	return firstErr
}

func (c *Cluster) stripe(b int64) *sync.Mutex {
	return &c.stripes[uint64(b)%writeStripes]
}

func (c *Cluster) nextVersion() uint64 {
	now := uint64(time.Now().UnixMicro())
	for {
		cur := c.verCounter.Load()
		next := cur + 1
		if now > next {
			next = now
		}
		if c.verCounter.CompareAndSwap(cur, next) {
			return next<<8 | uint64(c.verTag)
		}
	}
}

// observeVersion ratchets the clock past a version seen on a replica,
// so every future write by this client orders after it.
func (c *Cluster) observeVersion(v uint64) {
	vc := v >> 8
	for {
		cur := c.verCounter.Load()
		if cur >= vc || c.verCounter.CompareAndSwap(cur, vc) {
			return
		}
	}
}

func (c *Cluster) checkBlock(b int64) error {
	if b < 0 || b >= c.blocks {
		return fmt.Errorf("pcmcluster: block %d out of range [0, %d)", b, c.blocks)
	}
	return nil
}

// noteResult feeds one replica op's outcome to the node's breaker and
// the per-node instruments. Typed in-band responses — including
// permanent and corrupt verdicts — prove the node alive; only
// transient failures (connection loss, timeouts, fast-fail while
// down) count toward marking it down.
func (c *Cluster) noteResult(n *node, write bool, err error) {
	if write {
		n.mWrites.Inc()
	} else {
		n.mReads.Inc()
	}
	if err == nil {
		n.onSuccess()
		return
	}
	n.mErrs.Inc()
	if errors.Is(err, errNodeDown) {
		return // fast-fail, not new evidence
	}
	if errors.Is(err, pcmserve.ErrRetryBudgetExhausted) {
		c.met.retryBudgetExhausted.Inc()
	}
	if errors.Is(err, pcmserve.ErrOverloaded) || errors.Is(err, pcmserve.ErrDeadlineExceeded) {
		// A typed shed verdict is proof of life, never breaker
		// evidence: it opens the node's overload backoff window and
		// feeds the brownout meter instead.
		c.overloadEvent(n, pcmserve.RetryAfter(err))
		return
	}
	if pcmserve.Classify(err) == pcmserve.ClassTransient {
		if n.onFailure() {
			c.met.nodeTransitions.Inc()
		}
		return
	}
	n.onSuccess()
}

// replicaRead is one replica's reply to a slot read.
type replicaRead struct {
	n      *node
	slot   []byte
	data   []byte
	meta   blockMeta
	status slotStatus
	err    error
	// fragIdx is the stored fragment index in coded mode (from the
	// fragment trailer, so it survives placement reshuffles).
	fragIdx uint8
	// rtt is the reply round-trip as seen by the quorum fan-out (zero
	// when the reply was not timed, e.g. anti-entropy sweeps).
	rtt time.Duration
}

// valid reports whether this reply counts toward the read quorum: a
// structurally sound slot (written or provably unwritten). Corrupt
// slots and errors do not count.
func (r replicaRead) valid() bool {
	return r.err == nil && r.status != slotCorrupt
}

// readReplica reads block b's slot from one node.
func (c *Cluster) readReplica(ctx context.Context, n *node, b int64) replicaRead {
	var res [1]replicaRead
	c.readSlots(ctx, n, b, res[:])
	return res[0]
}

// readSlots reads the len(dst) slots starting at lo from one node with
// one ReadAtCtx and decodes them into dst, one reply per slot. A failed
// read fails every slot with the same error, which it returns; issued
// is false when the node's breaker refused the read before any RPC.
func (c *Cluster) readSlots(ctx context.Context, n *node, lo int64, dst []replicaRead) (issued bool, err error) {
	err = errNodeDown
	var buf []byte
	if issued = n.admit(); issued {
		buf = make([]byte, int64(len(dst))*c.slotBytes)
		_, err = n.client.ReadAtCtx(ctx, buf, lo*c.slotBytes)
	}
	c.noteResult(n, false, err)
	for i := range dst {
		if err != nil {
			dst[i] = replicaRead{n: n, err: err}
			continue
		}
		end := int64(i+1) * c.slotBytes
		slot := buf[end-c.slotBytes : end : end]
		ss := c.decodeStoredSlot(slot)
		if ss.status == slotOK {
			c.observeVersion(ss.meta.Version)
		}
		dst[i] = replicaRead{n: n, slot: slot, data: ss.data, meta: ss.meta, status: ss.status, fragIdx: ss.fragIdx}
	}
	return issued, err
}

// readSpan reads slots [lo, lo+n) from every replica in reps — one
// ReadAtCtx per replica, all in parallel — and returns the replies per
// slot: out[i] holds slot lo+i's reply from each replica, in reps
// order, as readReplica would have returned it. Each replica's read is
// traced as one span named spanName; rpcs counts the reads issued.
//
// One uncorrectable device block fails a node's whole range read, so a
// span read rejected as corrupt is retried slot by slot: the failure
// stays confined to the slots it touches, as with per-slot reads.
// Every other failure (a down node, a timeout, a shed) fails the
// replica's whole span.
func (c *Cluster) readSpan(ctx context.Context, ot *opTrace, spanName string, reps []*node, lo, n int64) (out [][]replicaRead, rpcs int) {
	byRep := make([]replicaRead, int64(len(reps))*n)
	var issued atomic.Int64
	var wg sync.WaitGroup
	for j, rep := range reps {
		wg.Add(1)
		go func(dst []replicaRead, rep *node) {
			defer wg.Done()
			readT := time.Now()
			ok, err := c.readSlots(ctx, rep, lo, dst)
			if ok {
				issued.Add(1)
			}
			if err != nil && len(dst) > 1 && pcmserve.Classify(err) == pcmserve.ClassCorrupt {
				for i := range dst {
					if ok, _ := c.readSlots(ctx, rep, lo+int64(i), dst[i:i+1]); ok {
						issued.Add(1)
					}
				}
			}
			ot.span(spanName, rep.addr, readT, err)
		}(byRep[int64(j)*n:int64(j+1)*n], rep)
	}
	wg.Wait()
	out = make([][]replicaRead, n)
	for i := range out {
		out[i] = make([]replicaRead, len(reps))
		for j := range reps {
			out[i][j] = byRep[int64(j)*n+int64(i)]
		}
	}
	return out, int(issued.Load())
}

// writeReplica writes a stamped slot to one node, buffering a hint
// when the node is down or the write fails transiently.
func (c *Cluster) writeReplica(ctx context.Context, n *node, b int64, slot []byte, version uint64) error {
	if !n.admit() {
		c.noteResult(n, true, errNodeDown)
		c.queueHint(n, b, slot, version)
		return errNodeDown
	}
	_, err := n.client.WriteAtCtx(ctx, slot, b*c.slotBytes)
	c.noteResult(n, true, err)
	if err != nil && pcmserve.Classify(err) == pcmserve.ClassTransient {
		c.queueHint(n, b, slot, version)
	}
	return err
}

func (c *Cluster) queueHint(n *node, b int64, slot []byte, version uint64) {
	switch n.addHint(b, slot, version) {
	case hintStored:
		c.met.hintsQueued.Inc()
	case hintSuperseded:
		c.met.hintsDroppedStale.Inc()
	case hintOverflow:
		c.met.hintsDroppedFull.Inc()
	case hintObsolete:
		c.met.hintsObsolete.Inc()
	}
}

// requeueHint puts a hint back after a failed replay batch. The re-add
// can itself fail — the buffer refilled meanwhile, or a newer hint for
// the block arrived — and those drops must be counted, not silent.
func (c *Cluster) requeueHint(n *node, b int64, h hint) {
	switch n.addHint(b, h.slot, h.version) {
	case hintSuperseded:
		c.met.hintsDroppedStale.Inc()
	case hintOverflow:
		c.met.hintsDroppedFull.Inc()
	case hintObsolete:
		c.met.hintsObsolete.Inc()
	}
}

// ReadBlock reads block b with read-quorum semantics: it returns the
// highest-version structurally valid copy among R valid replica
// replies (64 bytes; all zeros if the block was never written), or a
// typed error — never silently stale or corrupt data. Reads quorum
// against the authoritative placement only: a node that is still
// joining never serves them. Divergent replicas found along the way
// are repaired in the background.
func (c *Cluster) ReadBlock(ctx context.Context, b int64) ([]byte, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	if err := c.checkBlock(b); err != nil {
		return nil, err
	}
	c.opGate.RLock()
	defer c.opGate.RUnlock()
	if c.closed.Load() {
		return nil, ErrClosed
	}
	if c.coded {
		return c.readCodedBlock(ctx, b)
	}
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
	results := make(chan replicaRead, len(reps))
	for _, n := range reps {
		c.bg.Add(1)
		go func(n *node) {
			defer c.bg.Done()
			sent := time.Now()
			res := c.readReplica(ctx, n, b)
			res.rtt = time.Since(sent)
			results <- res
		}(n)
	}

	var all []replicaRead
	valids := 0
	degraded := false
	for len(all) < len(reps) && valids < c.r {
		select {
		case res := <-results:
			all = append(all, res)
			ot.reply("replica_read", res.n, res.rtt, res.err, false)
			if res.valid() {
				valids++
			} else {
				degraded = true
			}
		case <-ctx.Done():
			ot.fail(ctx.Err())
			c.sloAvail.Record(false)
			c.sloLat.Record(false)
			c.drainReads(b, len(reps)-len(all), results, all, blockMeta{}, nil, false, ot)
			c.met.quorumFailRead.Inc()
			return nil, fmt.Errorf("pcmcluster: read block %d: %d/%d valid replies: %w: %w",
				b, valids, c.r, ctx.Err(), ErrReadQuorum)
		}
	}
	if valids < c.r {
		err := fmt.Errorf("pcmcluster: read block %d: %d/%d valid replies from %d replicas (last: %w): %w",
			b, valids, c.r, len(reps), firstProblem(all), ErrReadQuorum)
		ot.fail(firstProblem(all))
		c.sloAvail.Record(false)
		c.sloLat.Record(false)
		c.drainReads(b, len(reps)-len(all), results, all, blockMeta{}, nil, false, ot)
		c.met.quorumFailRead.Inc()
		return nil, err
	}
	ot.quorum()

	// Last-writer-wins: the highest version among the valid replies
	// (exact ties broken by data CRC — see blockMeta.newer).
	electT := time.Now()
	var winner replicaRead
	found := false
	for _, res := range all {
		if res.valid() && (!found || res.meta.newer(winner.meta)) {
			winner, found = res, true
		}
	}
	ot.span("winner_election", "", electT, nil)
	quorumLat := time.Since(t0)
	c.met.latRead.ObserveTrace(quorumLat.Seconds(), traceID)
	c.sloAvail.Record(true)
	c.sloLat.Record(quorumLat <= c.sloLatTarget)
	if degraded {
		c.met.degradedReads.Inc()
	}
	// Stragglers still resolve, and any divergent replica (in the
	// quorum or behind it) is repaired — in the background so the read
	// returns at quorum speed.
	c.bg.Add(1)
	go func() {
		defer c.bg.Done()
		c.drainReads(b, len(reps)-len(all), results, all, winner.meta, winner.slot, true, ot)
	}()
	out := make([]byte, DataBytes)
	copy(out, winner.data)
	return out, nil
}

// firstProblem summarizes the first non-valid reply for error text.
func firstProblem(all []replicaRead) error {
	for _, r := range all {
		if r.err != nil {
			return r.err
		}
		if r.status == slotCorrupt {
			return errors.New("corrupt slot")
		}
	}
	return nil
}

// drainReads consumes remaining replica replies (recording them on ot
// as stragglers and closing the trace) and, when repair is set,
// reconciles every divergent replica against the winner. Each repair
// runs under its own cause-tagged root trace, not the read's — the
// read's trace closed at the straggler tail, and repair traffic should
// be separable in /tracez.
func (c *Cluster) drainReads(b int64, remaining int, results chan replicaRead, all []replicaRead, winner blockMeta, winnerSlot []byte, repair bool, ot *opTrace) {
	for ; remaining > 0; remaining-- {
		res := <-results
		ot.reply("replica_read", res.n, res.rtt, res.err, true)
		all = append(all, res)
	}
	ot.finish()
	if !repair {
		return
	}
	for _, res := range all {
		if res.err != nil {
			continue
		}
		divergent := res.status == slotCorrupt || winner.newer(res.meta)
		if !divergent {
			continue
		}
		if res.status == slotCorrupt {
			c.met.divergentCorrupt.Inc()
		} else {
			c.met.divergentStale.Inc()
		}
		if c.brownoutLevel() >= brownoutDeferRepairs {
			// Deep brownout: park the repair in the hint buffer instead
			// of adding write load. The drain loop replays it once the
			// node's overload window closes.
			c.queueHint(res.n, b, winnerSlot, winner.Version)
			c.met.repairsDeferred.Inc()
			continue
		}
		rctx, rot := c.bgTrace("read_repair", "read_repair", b)
		c.repairReplica(rctx, rot, res.n, b, winnerSlot, winner, c.met.repairsRead)
		rot.finish()
	}
}

// repairReplica rewrites block b on one replica from the winner slot.
// Under the block's stripe lock it re-reads the stored slot first: if a
// copy at or past the winner (in the version-then-CRC order) landed in
// the meantime the repair is skipped, so a repair can never regress a
// replica past a newer write. The re-check decodes the whole slot, not
// just the trailer — corrupted data under an intact trailer must still
// be rewritten.
func (c *Cluster) repairReplica(ctx context.Context, ot *opTrace, n *node, b int64, winnerSlot []byte, winner blockMeta, counter *obs.Counter) {
	if n.currentState() != NodeUp {
		return // unreachable replicas converge via hints or later sweeps
	}
	if n.isOverloaded() {
		// Repair is background write load; hint it for replay after the
		// node's overload window instead of piling on now.
		c.queueHint(n, b, winnerSlot, winner.Version)
		c.met.repairsDeferred.Inc()
		return
	}
	ctx, cancel := context.WithTimeout(ctx, c.opTimeout)
	defer cancel()
	lockT := time.Now()
	mu := c.stripe(b)
	mu.Lock()
	defer mu.Unlock()
	ot.span("stripe_lock", "", lockT, nil)
	recheckT := time.Now()
	cur := make([]byte, c.slotBytes)
	_, rerr := n.client.ReadAtCtx(ctx, cur, b*c.slotBytes)
	switch {
	case rerr == nil:
		if ss := c.decodeStoredSlot(cur); ss.status == slotOK {
			c.observeVersion(ss.meta.Version)
			if !winner.newer(ss.meta) {
				ot.span("repair_recheck", n.addr, recheckT, nil)
				ot.mark("repair_skipped")
				c.met.repairsSkipped.Inc()
				return
			}
		}
	case pcmserve.Classify(rerr) == pcmserve.ClassTransient:
		// Can't prove the winner is still newest (the recheck itself
		// was shed or timed out); a blind write could regress a replica
		// that took later writes. Defer to a hint — its replay rechecks
		// once the node answers reads again and drops stale data.
		ot.span("repair_recheck", n.addr, recheckT, rerr)
		c.noteResult(n, false, rerr)
		c.queueHint(n, b, winnerSlot, winner.Version)
		c.met.repairsDeferred.Inc()
		return
	}
	// Corrupt or otherwise permanently unreadable slot: the repair
	// write replaces it; fall through.
	ot.span("repair_recheck", n.addr, recheckT, nil)
	writeT := time.Now()
	_, err := n.client.WriteAtCtx(ctx, winnerSlot, b*c.slotBytes)
	ot.span("repair_write", n.addr, writeT, err)
	c.noteResult(n, true, err)
	if err != nil {
		c.met.repairsFailed.Inc()
		return
	}
	counter.Inc()
	if c.coded {
		c.met.ecFragRepairs.Inc()
	}
}

// WriteBlock writes 64 bytes to block b with write-quorum semantics:
// it stamps a fresh version, fans out to every replica, and returns
// once W replicas acknowledge (stragglers finish in the background;
// failed or unreachable replicas get hinted writes). During a
// membership transition the write must reach W acknowledgements under
// BOTH the current and the next placement — the dual-quorum rule that
// makes the epoch flip safe (see membership.go). On ErrWriteQuorum the
// write may still have partially applied.
func (c *Cluster) WriteBlock(ctx context.Context, b int64, data []byte) error {
	if len(data) != DataBytes {
		return fmt.Errorf("pcmcluster: write needs exactly %d bytes, got %d", DataBytes, len(data))
	}
	if c.closed.Load() {
		return ErrClosed
	}
	if err := c.checkBlock(b); err != nil {
		return err
	}
	c.opGate.RLock()
	defer c.opGate.RUnlock()
	if c.closed.Load() {
		return ErrClosed
	}
	c.met.quorumWrites.Inc()
	t0 := time.Now()

	var traceID uint64
	var ot *opTrace
	if !c.traceOff {
		ctx, traceID = obs.EnsureTrace(ctx)
		ot = c.startTrace("quorum_write", b, traceID, "")
	}

	version := c.nextVersion()

	ep := c.epoch.Load()
	part := c.partOf(b)
	curReps := ep.cur.replicas(part, c.rf)
	targets := curReps
	var nextReps []*node
	if ep.next != nil {
		nextReps = ep.next.replicas(part, c.rf)
		targets = unionNodes(curReps, nextReps)
	}
	// Per-target slot images: identical replica slots when mirrored,
	// per-position fragment slots when coded.
	payloads, err := c.writePayloads(curReps, nextReps, targets, data, version)
	if err != nil {
		ot.fail(err)
		ot.finish()
		return err
	}

	// The stripe stays locked until every replica write resolves (not
	// just the first W), so no repair or hint replay can interleave
	// with this write's stragglers.
	lockT := time.Now()
	mu := c.stripe(b)
	mu.Lock()
	ot.span("stripe_lock", "", lockT, nil)
	type writeRes struct {
		n   *node
		err error
		rtt time.Duration
	}
	results := make(chan writeRes, len(targets))
	for i, n := range targets {
		c.bg.Add(1)
		go func(n *node, slot []byte) {
			defer c.bg.Done()
			sent := time.Now()
			err := c.writeReplica(ctx, n, b, slot, version)
			results <- writeRes{n: n, err: err, rtt: time.Since(sent)}
		}(n, payloads[i])
	}

	acksCur, acksNext, resolved := 0, 0, 0
	quorum := func() bool {
		return acksCur >= c.w && (nextReps == nil || acksNext >= c.w)
	}
	var lastErr error
	ctxErr := error(nil)
	for resolved < len(targets) && !quorum() && ctxErr == nil {
		select {
		case res := <-results:
			resolved++
			ot.reply("replica_write", res.n, res.rtt, res.err, false)
			if res.err == nil {
				if containsNode(curReps, res.n) {
					acksCur++
				}
				if containsNode(nextReps, res.n) {
					acksNext++
				}
			} else {
				if errors.Is(res.err, errNodeDown) || pcmserve.Classify(res.err) == pcmserve.ClassTransient {
					ot.mark("hint_enqueue")
				}
				lastErr = res.err
			}
		case <-ctx.Done():
			ctxErr = ctx.Err()
		}
	}
	met := quorum()
	if met {
		ot.quorum()
	} else if ctxErr != nil {
		ot.fail(ctxErr)
	} else {
		ot.fail(lastErr)
	}
	if resolved == len(targets) {
		ot.finish()
		mu.Unlock()
	} else {
		c.bg.Add(1)
		go func(remaining int) {
			defer c.bg.Done()
			for ; remaining > 0; remaining-- {
				res := <-results
				ot.reply("replica_write", res.n, res.rtt, res.err, true)
			}
			ot.finish()
			mu.Unlock()
		}(len(targets) - resolved)
	}

	if met {
		quorumLat := time.Since(t0)
		c.met.latWrite.ObserveTrace(quorumLat.Seconds(), traceID)
		c.sloAvail.Record(true)
		c.sloLat.Record(quorumLat <= c.sloLatTarget)
		if lastErr != nil {
			c.met.degradedWrites.Inc()
		}
		return nil
	}
	c.sloAvail.Record(false)
	c.sloLat.Record(false)
	c.met.quorumFailWrite.Inc()
	acks := acksCur
	if nextReps != nil && acksNext < acks {
		acks = acksNext
	}
	if ctxErr != nil {
		return fmt.Errorf("pcmcluster: write block %d: %d/%d acks: %w: %w",
			b, acks, c.w, ctxErr, ErrWriteQuorum)
	}
	return fmt.Errorf("pcmcluster: write block %d: %d/%d acks from %d replicas (last: %w): %w",
		b, acks, c.w, len(targets), lastErr, ErrWriteQuorum)
}

// drainLoop replays hinted writes to nodes that have come back.
func (c *Cluster) drainLoop(interval time.Duration) {
	defer c.loops.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		for _, n := range c.epoch.Load().nodes {
			if n.hintCount() == 0 || n.currentRole() == RoleRemoved {
				continue
			}
			if !n.admit() { // down and no probe due
				continue
			}
			if n.isOverloaded() {
				continue // replay is background; let the node breathe
			}
			hints := n.takeHints(256)
			requeue := false
			for b, h := range hints {
				if requeue {
					c.requeueHint(n, b, h)
					continue
				}
				if !c.replayHint(n, b, h) {
					requeue = true
					c.requeueHint(n, b, h)
				}
			}
		}
	}
}

// replayHint applies one buffered write if the node's stored slot is
// still older. It returns false when the node failed again (the
// caller re-queues). Each attempt runs under its own cause-tagged
// root trace and a per-attempt deadline, so a wedged node cannot
// stall the drain loop forever.
func (c *Cluster) replayHint(n *node, b int64, h hint) bool {
	ctx, ot := c.bgTrace("hint_replay", "hint_replay", b)
	defer ot.finish()
	ctx, cancel := context.WithTimeout(ctx, c.opTimeout)
	defer cancel()
	hMeta := c.decodeStoredSlot(h.slot).meta // always slotOK: hints hold encoded slot images
	lockT := time.Now()
	mu := c.stripe(b)
	mu.Lock()
	defer mu.Unlock()
	ot.span("stripe_lock", "", lockT, nil)
	recheckT := time.Now()
	cur := make([]byte, c.slotBytes)
	_, rerr := n.client.ReadAtCtx(ctx, cur, b*c.slotBytes)
	switch {
	case rerr == nil:
		if ss := c.decodeStoredSlot(cur); ss.status == slotOK {
			c.observeVersion(ss.meta.Version)
			if !hMeta.newer(ss.meta) {
				ot.span("hint_recheck", n.addr, recheckT, nil)
				ot.mark("hint_stale")
				c.met.hintsDroppedStale.Inc()
				return true
			}
		}
	case pcmserve.Classify(rerr) == pcmserve.ClassTransient:
		// The recheck failed transiently (shed, deadline, conn), so the
		// hint cannot be proven fresh — and a blind write could regress
		// a replica that accepted later writes while this hint sat in
		// the buffer. Requeue and retry once the node answers reads.
		ot.span("hint_recheck", n.addr, recheckT, rerr)
		c.noteResult(n, false, rerr)
		return false
	}
	// Corrupt or otherwise permanently unreadable slot: the hinted
	// write IS the repair; fall through.
	ot.span("hint_recheck", n.addr, recheckT, nil)
	writeT := time.Now()
	_, err := n.client.WriteAtCtx(ctx, h.slot, b*c.slotBytes)
	ot.span("hint_write", n.addr, writeT, err)
	c.noteResult(n, true, err)
	if err != nil {
		return pcmserve.Classify(err) != pcmserve.ClassTransient
	}
	c.met.hintsReplayed.Inc()
	return true
}
