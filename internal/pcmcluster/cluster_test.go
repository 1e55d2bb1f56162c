package pcmcluster

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/faultinject"
	"repro/internal/pcmserve"
)

// testNode is one in-process pcmserve node the cluster tests can kill
// and restart on a stable address, with fault injection armed under
// each shard.
type testNode struct {
	t      testing.TB
	g      *pcmserve.Shards
	fis    []*faultinject.Device
	addr   string
	srvCfg pcmserve.ServerConfig // reused across kill/restart

	mu       sync.Mutex
	srv      *pcmserve.Server
	serveErr chan error
	alive    bool
}

// startTestNode builds a 2-shard node (blocksPerShard × 64 B each) and
// serves it on a fresh loopback port.
func startTestNode(t testing.TB, blocksPerShard int, seed uint64) *testNode {
	return startTestNodeCfg(t, blocksPerShard, seed, pcmserve.ServerConfig{})
}

// startTestNodeCfg is startTestNode with an explicit server config —
// membership tests use it to emulate old peers (DisableRangeOps).
func startTestNodeCfg(t testing.TB, blocksPerShard int, seed uint64, srvCfg pcmserve.ServerConfig) *testNode {
	return startTestNodeTune(t, blocksPerShard, seed, srvCfg, nil)
}

// startTestNodeTune additionally lets the caller adjust the shards
// config before the node is built — overload tests shrink the queue
// depth so admission control engages under modest traffic.
func startTestNodeTune(t testing.TB, blocksPerShard int, seed uint64, srvCfg pcmserve.ServerConfig, tune func(*pcmserve.ShardsConfig)) *testNode {
	t.Helper()
	n := &testNode{t: t, srvCfg: srvCfg}
	cfg := pcmserve.ShardsConfig{
		Shards: 2,
		Device: device.Config{
			Blocks:         blocksPerShard,
			Seed:           seed,
			DisableWearout: true,
		},
		WrapDevice: func(i int, dev pcmserve.ShardDevice) pcmserve.ShardDevice {
			fi := faultinject.New(dev, faultinject.Plan{Seed: seed + uint64(i)})
			n.fis = append(n.fis, fi)
			return fi
		},
		// Keep every server-side trace so tests can stitch any op's ID.
		Obs: &pcmserve.Observability{TraceSampleEvery: 1},
	}
	if tune != nil {
		tune(&cfg)
	}
	g, err := pcmserve.NewShards(cfg)
	if err != nil {
		t.Fatalf("NewShards: %v", err)
	}
	n.g = g
	t.Cleanup(func() { g.Close() })

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	n.addr = ln.Addr().String()
	n.serve(ln)
	t.Cleanup(n.kill)
	return n
}

func (n *testNode) serve(ln net.Listener) {
	srv := pcmserve.NewServer(n.g, n.srvCfg)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	n.mu.Lock()
	n.srv, n.serveErr, n.alive = srv, errCh, true
	n.mu.Unlock()
}

// kill shuts the server down; the shards (and their stored bytes)
// survive for a later restart.
func (n *testNode) kill() {
	n.mu.Lock()
	srv, errCh, alive := n.srv, n.serveErr, n.alive
	n.alive = false
	n.mu.Unlock()
	if !alive {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		n.t.Errorf("Shutdown(%s): %v", n.addr, err)
	}
	if err := <-errCh; !errors.Is(err, pcmserve.ErrServerClosed) {
		n.t.Errorf("Serve(%s) returned %v, want ErrServerClosed", n.addr, err)
	}
}

// restart brings the node back on its original address over the same
// storage. The OS may briefly hold the port, so rebinding retries.
func (n *testNode) restart() {
	n.t.Helper()
	var ln net.Listener
	var err error
	for i := 0; i < 200; i++ {
		ln, err = net.Listen("tcp", n.addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		n.t.Fatalf("rebind %s: %v", n.addr, err)
	}
	n.serve(ln)
}

// testCluster spins up count nodes and a cluster over them, tuned for
// fast failover in tests.
func testCluster(t testing.TB, count int, tune func(*Config)) (*Cluster, []*testNode) {
	t.Helper()
	nodes := make([]*testNode, count)
	addrs := make([]string, count)
	for i := range nodes {
		nodes[i] = startTestNode(t, 64, uint64(1000*i+7))
		addrs[i] = nodes[i].addr
	}
	cfg := Config{
		Nodes:              addrs,
		OpTimeout:          2 * time.Second,
		FailThreshold:      1,
		ProbeInterval:      20 * time.Millisecond,
		HintReplayInterval: 10 * time.Millisecond,
		Seed:               99,
	}
	if tune != nil {
		tune(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c, nodes
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// readNodeSlot reads block b's raw slot directly off one node, outside
// the cluster, for replica-level assertions.
func readNodeSlot(t *testing.T, addr string, b int64) ([]byte, blockMeta, slotStatus) {
	t.Helper()
	cl, err := pcmserve.Dial(addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer cl.Close()
	slot := make([]byte, SlotBytes)
	if _, err := cl.ReadAt(slot, b*SlotBytes); err != nil {
		t.Fatalf("raw read %s block %d: %v", addr, b, err)
	}
	data, meta, status := decodeSlot(slot)
	return data, meta, status
}

// writeNodeSlot plants a raw slot image directly on one node, outside
// the cluster — for forging divergent replica states.
func writeNodeSlot(t *testing.T, addr string, b int64, slot []byte) {
	t.Helper()
	cl, err := pcmserve.Dial(addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer cl.Close()
	if _, err := cl.WriteAt(slot, b*SlotBytes); err != nil {
		t.Fatalf("raw write %s block %d: %v", addr, b, err)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"no nodes", Config{}, "at least one node"},
		{"empty addr", Config{Nodes: []string{"a:1", ""}}, "empty node address"},
		{"duplicate addr", Config{Nodes: []string{"a:1", "a:1"}}, "duplicate node address"},
		{"rf exceeds nodes", Config{Nodes: []string{"a:1", "b:1"}, ReplicationFactor: 3}, "exceeds 2 nodes"},
		{"quorum exceeds rf", Config{Nodes: []string{"a:1", "b:1", "c:1"}, WriteQuorum: 4}, "exceed replication factor"},
		{"non-intersecting quorums", Config{Nodes: []string{"a:1", "b:1", "c:1"}, WriteQuorum: 1, ReadQuorum: 2}, "must exceed replication factor"},
		{"sweep budget below one slot", Config{Nodes: []string{"a:1", "b:1", "c:1"}, AntiEntropySweepBytesPerSec: 100}, "below one slot across 3 replicas"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestClusterRoundTrip(t *testing.T) {
	c, _ := testCluster(t, 3, nil)
	ctx := context.Background()

	// Capacity comes from the STATS probe: 2 shards × 64 blocks × 64 B
	// per node = 8192 B → 102 slots.
	if got := c.Blocks(); got != 102 {
		t.Fatalf("Blocks() = %d, want 102", got)
	}

	for b := int64(0); b < 10; b++ {
		data := bytes.Repeat([]byte{byte(0x30 + b)}, DataBytes)
		if err := c.WriteBlock(ctx, b, data); err != nil {
			t.Fatalf("write block %d: %v", b, err)
		}
		got, err := c.ReadBlock(ctx, b)
		if err != nil {
			t.Fatalf("read block %d: %v", b, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("block %d round-trip mismatch", b)
		}
	}
	// Overwrites win: the newest version is what reads return.
	newer := bytes.Repeat([]byte{0xEE}, DataBytes)
	if err := c.WriteBlock(ctx, 3, newer); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadBlock(ctx, 3)
	if err != nil || !bytes.Equal(got, newer) {
		t.Fatalf("overwrite not visible: %v", err)
	}

	// Never-written blocks read as zeros, not an error.
	got, err = c.ReadBlock(ctx, c.Blocks()-1)
	if err != nil {
		t.Fatalf("read unwritten: %v", err)
	}
	if !bytes.Equal(got, make([]byte, DataBytes)) {
		t.Fatal("unwritten block not zero")
	}

	// Range and size errors are immediate and typed.
	if _, err := c.ReadBlock(ctx, c.Blocks()); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if err := c.WriteBlock(ctx, -1, newer); err == nil {
		t.Fatal("negative block write accepted")
	}
	if err := c.WriteBlock(ctx, 0, newer[:10]); err == nil {
		t.Fatal("short write accepted")
	}

	st := c.Stats()
	if st.QuorumReads == 0 || st.QuorumWrites == 0 {
		t.Fatalf("quorum counters not moving: %+v", st)
	}
	if !c.Health().Healthy {
		t.Fatal("healthy cluster reports unhealthy")
	}
}

func TestClusterClosedOps(t *testing.T) {
	c, _ := testCluster(t, 3, nil)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
	if _, err := c.ReadBlock(context.Background(), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close = %v, want ErrClosed", err)
	}
	if err := c.WriteBlock(context.Background(), 0, make([]byte, DataBytes)); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close = %v, want ErrClosed", err)
	}
}

// TestClusterReadRepairsCorruptReplica flips stored bits under one
// replica and checks that reads keep returning exact data while the
// damaged copy is detected, excluded from the quorum, and rewritten.
func TestClusterReadRepairsCorruptReplica(t *testing.T) {
	c, nodes := testCluster(t, 3, nil)
	ctx := context.Background()

	const b = int64(0) // slot 0 sits in shard 0, device block 0, on every node
	data := bytes.Repeat([]byte{0x5A}, DataBytes)
	if err := c.WriteBlock(ctx, b, data); err != nil {
		t.Fatal(err)
	}

	victim := nodes[0]
	victim.fis[0].FlipStoredBits(0, 4)

	// Every read must return the exact data: the corrupt replica can
	// cost quorum speed, never correctness.
	waitFor(t, 5*time.Second, "corrupt replica detected and repaired", func() bool {
		got, err := c.ReadBlock(ctx, b)
		if err != nil {
			t.Fatalf("read during corruption: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read returned wrong bytes during corruption")
		}
		st := c.Stats()
		return st.DivergentCorrupt >= 1 && st.ReadRepairs >= 1
	})

	// The victim's replica converged back to the written value.
	waitFor(t, 5*time.Second, "victim replica rewritten", func() bool {
		got, _, status := readNodeSlot(t, victim.addr, b)
		return status == slotOK && bytes.Equal(got, data)
	})
}

// TestClusterFailoverAndHintedHandoff kills one node, keeps writing
// (quorum holds at W=2), restarts it, and checks the missed writes are
// replayed from the hint buffer until the replica converges.
func TestClusterFailoverAndHintedHandoff(t *testing.T) {
	c, nodes := testCluster(t, 3, nil)
	ctx := context.Background()

	const b = int64(1)
	v1 := bytes.Repeat([]byte{0x11}, DataBytes)
	if err := c.WriteBlock(ctx, b, v1); err != nil {
		t.Fatal(err)
	}

	nodes[0].kill()

	// Writes and reads survive the dead node.
	v2 := bytes.Repeat([]byte{0x22}, DataBytes)
	if err := c.WriteBlock(ctx, b, v2); err != nil {
		t.Fatalf("write with one node down: %v", err)
	}
	got, err := c.ReadBlock(ctx, b)
	if err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("read with one node down: %v", err)
	}
	waitFor(t, 5*time.Second, "breaker to mark the node down", func() bool {
		// Drive traffic so the breaker sees the failures.
		if err := c.WriteBlock(ctx, b, v2); err != nil {
			t.Fatalf("write: %v", err)
		}
		st := c.Stats()
		return st.NodeDownTransitions >= 1 && st.HintsQueued >= 1
	})

	nodes[0].restart()

	waitFor(t, 10*time.Second, "hint replay after restart", func() bool {
		return c.Stats().HintsReplayed >= 1
	})
	// The revived replica holds the last-acknowledged write.
	waitFor(t, 5*time.Second, "revived replica to converge", func() bool {
		got, _, status := readNodeSlot(t, nodes[0].addr, b)
		return status == slotOK && bytes.Equal(got, v2)
	})
	waitFor(t, 5*time.Second, "breaker to revive the node", func() bool {
		for _, ns := range c.Stats().Nodes {
			if ns.Addr == nodes[0].addr {
				return ns.State == "up"
			}
		}
		return false
	})
}

// TestClusterQuorumFailuresTyped kills two of three nodes: both
// quorums become unreachable and every operation fails with its typed
// sentinel — never a hang, never fabricated data.
func TestClusterQuorumFailuresTyped(t *testing.T) {
	c, nodes := testCluster(t, 3, func(cfg *Config) {
		cfg.OpTimeout = 500 * time.Millisecond
	})
	ctx := context.Background()

	if err := c.WriteBlock(ctx, 2, bytes.Repeat([]byte{9}, DataBytes)); err != nil {
		t.Fatal(err)
	}
	nodes[0].kill()
	nodes[1].kill()

	if err := c.WriteBlock(ctx, 2, bytes.Repeat([]byte{8}, DataBytes)); !errors.Is(err, ErrWriteQuorum) {
		t.Fatalf("write with 2 nodes down = %v, want ErrWriteQuorum", err)
	}
	if _, err := c.ReadBlock(ctx, 2); !errors.Is(err, ErrReadQuorum) {
		t.Fatalf("read with 2 nodes down = %v, want ErrReadQuorum", err)
	}
	st := c.Stats()
	if st.WriteQuorumFails == 0 || st.ReadQuorumFailures == 0 {
		t.Fatalf("quorum failure counters not recorded: %+v", st)
	}
	if c.Health().Healthy {
		t.Fatal("cluster below quorum reports healthy")
	}
}

// TestClusterAntiEntropyRepairsColdBlock forces divergence on a block
// no foreground read touches (hints disabled by a huge replay
// interval) and checks the background sweep alone converges it.
func TestClusterAntiEntropyRepairsColdBlock(t *testing.T) {
	c, nodes := testCluster(t, 3, func(cfg *Config) {
		cfg.HintReplayInterval = time.Hour // hints must not beat the sweep
		cfg.AntiEntropyInterval = 2 * time.Millisecond
	})
	ctx := context.Background()

	const b = int64(4)
	v1 := bytes.Repeat([]byte{0x44}, DataBytes)
	if err := c.WriteBlock(ctx, b, v1); err != nil {
		t.Fatal(err)
	}

	nodes[0].kill()
	v2 := bytes.Repeat([]byte{0x55}, DataBytes)
	waitFor(t, 5*time.Second, "write to land while node 0 is down", func() bool {
		if err := c.WriteBlock(ctx, b, v2); err != nil {
			t.Fatalf("write: %v", err)
		}
		return c.Stats().NodeDownTransitions >= 1
	})
	nodes[0].restart()

	waitFor(t, 10*time.Second, "anti-entropy to repair the stale replica", func() bool {
		if c.Stats().AntiEntropyRepairs == 0 {
			return false
		}
		got, _, status := readNodeSlot(t, nodes[0].addr, b)
		return status == slotOK && bytes.Equal(got, v2)
	})
	waitFor(t, 5*time.Second, "a full sweep pass", func() bool {
		return c.Stats().AntiEntropyPasses >= 1
	})
}

// TestClusterRestartedClientWins pins the version-stamp contract
// across client restarts: a brand-new cluster client (fresh process,
// same tag seed — the worst case) writing over data stored by an
// earlier client must outrank it, so its acknowledged writes are never
// reverted to the predecessor's data by read-repair. A plain
// in-memory version counter restarting at 0 breaks this.
func TestClusterRestartedClientWins(t *testing.T) {
	nodes := make([]*testNode, 3)
	addrs := make([]string, 3)
	for i := range nodes {
		nodes[i] = startTestNode(t, 64, uint64(1000*i+7))
		addrs[i] = nodes[i].addr
	}
	mkCfg := func() Config {
		return Config{
			Nodes:              addrs,
			OpTimeout:          2 * time.Second,
			FailThreshold:      1,
			ProbeInterval:      20 * time.Millisecond,
			HintReplayInterval: 10 * time.Millisecond,
			Seed:               7, // identical on purpose: both clients share a tag
		}
	}
	ctx := context.Background()
	const b = int64(6)

	a, err := New(mkCfg())
	if err != nil {
		t.Fatalf("New (first client): %v", err)
	}
	v1 := bytes.Repeat([]byte{0xAA}, DataBytes)
	for i := 0; i < 50; i++ { // advance the first client's clock well past 1 tick
		if err := a.WriteBlock(ctx, b, v1); err != nil {
			t.Fatalf("first client write: %v", err)
		}
	}
	_, aMeta, status := readNodeSlot(t, nodes[0].addr, b)
	if status != slotOK {
		t.Fatalf("stored slot after first client: %v", status)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("Close (first client): %v", err)
	}

	bCl, err := New(mkCfg())
	if err != nil {
		t.Fatalf("New (restarted client): %v", err)
	}
	t.Cleanup(func() { bCl.Close() })
	v2 := bytes.Repeat([]byte{0xBB}, DataBytes)
	if err := bCl.WriteBlock(ctx, b, v2); err != nil {
		t.Fatalf("restarted client write: %v", err)
	}
	// The new write must outrank everything the predecessor stored…
	for _, n := range nodes {
		// WriteBlock returns at W acks, so the last replica's write may
		// still be in flight: wait for it to land before checking.
		waitFor(t, 5*time.Second, "the new write on "+n.addr, func() bool {
			got, _, status := readNodeSlot(t, n.addr, b)
			return status != slotOK || bytes.Equal(got, v2)
		})
		_, m, status := readNodeSlot(t, n.addr, b)
		if status != slotOK || !m.newer(aMeta) {
			t.Fatalf("node %s: version %d does not outrank predecessor's %d (status %v)",
				n.addr, m.Version, aMeta.Version, status)
		}
	}
	// …and reads (plus the repairs they trigger) must never revert it.
	for i := 0; i < 20; i++ {
		got, err := bCl.ReadBlock(ctx, b)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, v2) {
			t.Fatalf("read %d reverted to the predecessor's data", i)
		}
	}
}

// TestClusterEqualVersionTiebreakConverges forges the concurrent-client
// worst case: replicas disagreeing at byte-identical versions. The
// data-CRC tiebreak must pick one winner deterministically and repair
// the losers, instead of replicas disagreeing forever with reads
// flipping by quorum sample.
func TestClusterEqualVersionTiebreakConverges(t *testing.T) {
	c, nodes := testCluster(t, 3, func(cfg *Config) {
		cfg.AntiEntropyInterval = 2 * time.Millisecond
	})
	ctx := context.Background()

	const b = int64(2)
	ver := uint64(77)<<8 | 0x5A // same stamp, as if two clients shared counter and tag
	dataX := bytes.Repeat([]byte{0xA1}, DataBytes)
	dataY := bytes.Repeat([]byte{0xB2}, DataBytes)
	slotX := make([]byte, SlotBytes)
	slotY := make([]byte, SlotBytes)
	encodeSlot(slotX, dataX, ver)
	encodeSlot(slotY, dataY, ver)
	writeNodeSlot(t, nodes[0].addr, b, slotX)
	writeNodeSlot(t, nodes[1].addr, b, slotX)
	writeNodeSlot(t, nodes[2].addr, b, slotY)

	_, mX, _ := decodeSlot(slotX)
	_, mY, _ := decodeSlot(slotY)
	want := dataX
	if mY.newer(mX) {
		want = dataY
	}

	waitFor(t, 5*time.Second, "replicas to converge on the tie winner", func() bool {
		for _, n := range nodes {
			got, _, status := readNodeSlot(t, n.addr, b)
			if status != slotOK || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	})
	for i := 0; i < 10; i++ {
		got, err := c.ReadBlock(ctx, b)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read %d returned the tie loser after convergence", i)
		}
	}
}

// TestClusterProbeRequiresAllNodes pins the sizing contract: with a
// node unreachable, auto-sizing must refuse to construct (sizing from
// the smallest *reachable* node could overshoot the missing node's
// capacity and strand its blocks at RF-1 durability once it returned);
// an explicit Blocks skips the probe and still works.
func TestClusterProbeRequiresAllNodes(t *testing.T) {
	nodes := make([]*testNode, 3)
	addrs := make([]string, 3)
	for i := range nodes {
		nodes[i] = startTestNode(t, 64, uint64(1000*i+7))
		addrs[i] = nodes[i].addr
	}
	nodes[2].kill()
	cfg := Config{
		Nodes:         addrs,
		OpTimeout:     time.Second,
		FailThreshold: 1,
	}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "capacity probe needs every node") {
		t.Fatalf("New with a node down = %v, want capacity probe failure", err)
	}
	cfg.Blocks = 10
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New with explicit Blocks: %v", err)
	}
	defer c.Close()
	if got := c.Blocks(); got != 10 {
		t.Fatalf("Blocks() = %d, want 10", got)
	}
	if err := c.WriteBlock(context.Background(), 0, make([]byte, DataBytes)); err != nil {
		t.Fatalf("write on explicitly sized cluster: %v", err)
	}
}

// TestAddHintResults pins addHint's outcome classification, which the
// hint metrics (queued / dropped_stale / dropped_overflow) rely on —
// including in the drain-loop requeue path.
func TestAddHintResults(t *testing.T) {
	n := newNode("test:0", nil, 1, time.Second, 2)
	slot := make([]byte, SlotBytes)
	steps := []struct {
		b    int64
		ver  uint64
		want hintAddResult
	}{
		{1, 10, hintStored},
		{1, 9, hintSuperseded},  // older than queued
		{1, 10, hintSuperseded}, // equal to queued
		{1, 11, hintStored},     // newer replaces in place
		{2, 1, hintStored},      // fills the 2-slot buffer
		{3, 1, hintOverflow},    // new block at capacity
		{1, 12, hintStored},     // replacement still allowed at capacity
	}
	for i, s := range steps {
		if got := n.addHint(s.b, slot, s.ver); got != s.want {
			t.Fatalf("step %d: addHint(%d, v%d) = %v, want %v", i, s.b, s.ver, got, s.want)
		}
	}
	if got := n.hintCount(); got != 2 {
		t.Fatalf("hintCount = %d, want 2", got)
	}
}

// TestClusterBlocksFixedByConfig skips the capacity probe.
func TestClusterBlocksFixedByConfig(t *testing.T) {
	c, _ := testCluster(t, 3, func(cfg *Config) {
		cfg.Blocks = 17
	})
	if got := c.Blocks(); got != 17 {
		t.Fatalf("Blocks() = %d, want 17", got)
	}
	if _, err := c.ReadBlock(context.Background(), 17); err == nil {
		t.Fatal("read past configured capacity accepted")
	}
}
