package pcmcluster

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pcmserve"
)

// NodeClient is what the cluster needs from one node's connection.
// *pcmserve.RetryClient satisfies it; tests substitute in-process
// fakes via Config.DialNode.
type NodeClient interface {
	ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error)
	WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error)
	// HashRangeCtx and ReadStrideCtx are the vectored anti-entropy ops.
	// Peers without them return errors satisfying
	// errors.Is(err, pcmserve.ErrUnsupported); the cluster then falls
	// back to the per-slot sweep for ranges owned by that node.
	HashRangeCtx(ctx context.Context, off int64, recordBytes, count, fanout int) ([]pcmserve.RangeDigest, error)
	ReadStrideCtx(ctx context.Context, off int64, stride, recordBytes, count int) ([][]byte, error)
	Stats() (pcmserve.Stats, error)
	Close() error
}

// NodeState is a node's breaker verdict.
type NodeState int32

const (
	// NodeUp: ops are admitted normally.
	NodeUp NodeState = iota
	// NodeDown: consecutive transient failures reached the threshold;
	// ops fast-fail (writes buffer as hints) until a probe succeeds.
	NodeDown
)

func (s NodeState) String() string {
	if s == NodeDown {
		return "down"
	}
	return "up"
}

// NodeRole is a node's position in the membership lifecycle.
type NodeRole int32

const (
	// RoleActive: a full member; serves reads and takes writes.
	RoleActive NodeRole = iota
	// RoleJoining: receiving its bulk join stream; takes dual-quorum
	// writes but is not yet in the read set.
	RoleJoining
	// RoleDraining: being drained; still serves reads and takes writes
	// until the fence flips the epoch past it.
	RoleDraining
	// RoleRemoved: drained out (or an aborted joiner). No longer in any
	// placement; hints offered to it are obsolete by construction —
	// every acknowledged write holds a quorum among the live owners.
	RoleRemoved
)

func (r NodeRole) String() string {
	switch r {
	case RoleJoining:
		return "joining"
	case RoleDraining:
		return "draining"
	case RoleRemoved:
		return "removed"
	}
	return "active"
}

// hint is one buffered write awaiting a down node's return. Only the
// newest version per block is kept.
type hint struct {
	slot    []byte
	version uint64
}

// node pairs one pcmserve connection with breaker state and a hinted
// handoff buffer. The breaker is deliberately one-sided: only
// transient failures (connection loss, timeouts — pcmserve.Classify
// ClassTransient) count against the node, because a typed in-band
// RemoteError is proof the node is alive and serving.
type node struct {
	addr   string
	seed   uint64
	client NodeClient

	failThreshold int
	probeInterval time.Duration
	hintCap       int

	// role tracks the membership lifecycle; noMerkle latches when the
	// node answers a range op with ErrUnsupported, steering anti-entropy
	// to the span sweep for its ranges.
	role     atomic.Int32
	noMerkle atomic.Bool

	// Per-node instruments, registered by metrics.registerNode when the
	// node enters the membership (construction or Join). The reply
	// histograms split replica round-trips by quorum position — replies
	// that counted toward their op's quorum vs. the straggler tail —
	// and carry trace-ID exemplars; they stay nil when tracing is off.
	mReads, mWrites, mErrs      *obs.Counter
	latReply, latReplyStraggler *obs.Histogram

	mu        sync.Mutex
	state     NodeState
	fails     int // consecutive transient failures while up
	downSince time.Time
	probing   bool
	hints     map[int64]hint
	// overloadedUntil is the end of the node's typed-overload backoff
	// window (opened by noteOverload). Background traffic — hint
	// replay, anti-entropy, repairs — skips the node inside the window;
	// foreground quorum ops still try, because a shed reply is cheap
	// and the server's admission is the real arbiter.
	overloadedUntil time.Time
}

func newNode(addr string, client NodeClient, failThreshold int, probeInterval time.Duration, hintCap int) *node {
	return &node{
		addr:          addr,
		seed:          nodeSeed(addr),
		client:        client,
		failThreshold: failThreshold,
		probeInterval: probeInterval,
		hintCap:       hintCap,
		hints:         make(map[int64]hint),
	}
}

func (n *node) currentRole() NodeRole { return NodeRole(n.role.Load()) }
func (n *node) setRole(role NodeRole) { n.role.Store(int32(role)) }

// admit reports whether an op may be sent: always while up, and once
// per probe interval while down (the half-open probe whose outcome
// decides revival).
func (n *node) admit() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.state == NodeUp {
		return true
	}
	if !n.probing && time.Since(n.downSince) >= n.probeInterval {
		n.probing = true
		return true
	}
	return false
}

// onSuccess records a live response (including typed in-band errors)
// and revives a down node.
func (n *node) onSuccess() {
	n.mu.Lock()
	n.fails = 0
	n.probing = false
	n.state = NodeUp
	n.mu.Unlock()
}

// onFailure records a transient failure; it returns true when this
// failure transitioned the node to down. A failed probe re-arms the
// probe window without re-counting a transition.
func (n *node) onFailure() (wentDown bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.state == NodeDown {
		n.probing = false
		n.downSince = time.Now()
		return false
	}
	n.fails++
	if n.fails >= n.failThreshold {
		n.state = NodeDown
		n.downSince = time.Now()
		n.probing = false
		return true
	}
	return false
}

func (n *node) currentState() NodeState {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state
}

// noteOverload opens (or extends) the node's overload backoff window
// after a typed shed verdict. A shed reply is proof of life, so the
// breaker resets exactly as onSuccess — marking an overloaded node
// down would convert brownout into blackout.
func (n *node) noteOverload(retryAfter time.Duration) {
	if retryAfter <= 0 {
		retryAfter = 50 * time.Millisecond
	}
	until := time.Now().Add(retryAfter)
	n.mu.Lock()
	if until.After(n.overloadedUntil) {
		n.overloadedUntil = until
	}
	n.fails = 0
	n.probing = false
	n.state = NodeUp
	n.mu.Unlock()
}

// isOverloaded reports whether the node is inside its overload backoff
// window.
func (n *node) isOverloaded() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return time.Now().Before(n.overloadedUntil)
}

// hintAddResult says what addHint did with a hint, so callers can
// count stores, supersessions, and overflow drops distinctly.
type hintAddResult int

const (
	// hintStored: the hint was buffered (possibly replacing an older one).
	hintStored hintAddResult = iota
	// hintSuperseded: an equal-or-newer hint for the block is already
	// queued; the offered write is obsolete, not lost.
	hintSuperseded
	// hintOverflow: the buffer is at capacity; the write is dropped and
	// only anti-entropy can recover the replica.
	hintOverflow
	// hintObsolete: the node has been drained out of the membership. The
	// write is not lost — a drain fences before removal, so any write
	// still in flight toward the old epoch already holds a full quorum
	// among the new owners (dual-quorum transition writes).
	hintObsolete
)

// addHint buffers a write for replay, keeping only the newest version
// per block.
func (n *node) addHint(b int64, slot []byte, version uint64) hintAddResult {
	if n.currentRole() == RoleRemoved {
		return hintObsolete
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if old, ok := n.hints[b]; ok {
		if old.version >= version {
			return hintSuperseded
		}
	} else if len(n.hints) >= n.hintCap {
		return hintOverflow
	}
	cp := make([]byte, len(slot))
	copy(cp, slot)
	n.hints[b] = hint{slot: cp, version: version}
	return hintStored
}

// takeHints removes and returns up to max buffered hints. Failed
// replays re-queue via addHint, which keeps whichever version is newer.
func (n *node) takeHints(max int) map[int64]hint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.hints) == 0 {
		return nil
	}
	out := make(map[int64]hint, min(max, len(n.hints)))
	for b, h := range n.hints {
		out[b] = h
		delete(n.hints, b)
		if len(out) >= max {
			break
		}
	}
	return out
}

func (n *node) hintCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.hints)
}
