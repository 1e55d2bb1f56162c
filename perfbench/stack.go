package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/pcmcluster"
	"repro/internal/pcmserve"
)

// opTimeout is the per-op (single node) and per-replica-attempt
// (cluster) timeout: cmd/pcmcluster's operational default.
const opTimeout = 2 * time.Second

// store is the served system as the benchmark's clients see it.
type store interface {
	read(ctx context.Context, client int, key int64) ([]byte, error)
	write(ctx context.Context, client int, key int64, data []byte) error
}

// nodeStore reaches one pcmserve node through one pcmserve.Client per
// benchmark client.
type nodeStore struct{ conns []*pcmserve.Client }

func (s nodeStore) read(ctx context.Context, client int, key int64) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	buf := make([]byte, blockBytes)
	_, err := s.conns[client].ReadAtCtx(ctx, buf, key*blockBytes)
	return buf, err
}

func (s nodeStore) write(ctx context.Context, client int, key int64, data []byte) error {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	_, err := s.conns[client].WriteAtCtx(ctx, data, key*blockBytes)
	return err
}

// clusterStore reaches the nodes through one pcmcluster.Cluster.
type clusterStore struct{ c *pcmcluster.Cluster }

func (s clusterStore) read(ctx context.Context, _ int, key int64) ([]byte, error) {
	return s.c.ReadBlock(ctx, key)
}

func (s clusterStore) write(ctx context.Context, _ int, key int64, data []byte) error {
	return s.c.WriteBlock(ctx, key, data)
}

// stack is one workload's served system, built in-process on loopback
// TCP, plus the benchmark's probes at the two hooks the program offers:
// pcmserve.ShardsConfig.WrapDevice and pcmcluster.Config.DialNode.
type stack struct {
	w       workload
	shards  []*pcmserve.Shards // per node
	servers []*pcmserve.Server
	serving sync.WaitGroup
	conns   []*pcmserve.Client
	cluster *pcmcluster.Cluster
	st      store

	dev   [][]*devProbe // [node][shard]
	rpcs  []*nodeProbe  // traced runs only
	nodes []string
}

// buildStack brings up the workload's nodes, servers and client side.
// rec, when non-nil, installs the tracing DialNode wrapper; device
// probes are always installed because they count block programs.
func buildStack(w workload, seed uint64, rec *recorder) (*stack, error) {
	s := &stack{w: w}
	blocksPerShard := w.nodeBytes / blockBytes / w.shards
	for i := 0; i < w.nodes; i++ {
		probes := make([]*devProbe, w.shards)
		cfg := pcmserve.ShardsConfig{
			Shards: w.shards,
			Device: device.Config{
				Kind: w.arch, Blocks: blocksPerShard,
				Seed: derive(seed, w.name, "node", i), DisableWearout: true,
			},
			WrapDevice: func(shard int, d pcmserve.ShardDevice) pcmserve.ShardDevice {
				p := &devProbe{ShardDevice: d, node: i, shard: shard, rec: rec}
				probes[shard] = p
				return p
			},
		}
		if w.clustered() {
			// cmd/pcmcluster's spawned nodes keep every node-side trace.
			cfg.Obs = &pcmserve.Observability{TraceSampleEvery: 1}
		}
		if w.live {
			cfg.Live = &pcmserve.LiveConfig{
				Levels:                 4,
				RefreshIntervalSeconds: 1020,
				WriteBudgetBytesPerSec: 40e6,
				TimeScale:              1,
			}
		}
		g, err := pcmserve.NewShards(cfg)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		s.shards = append(s.shards, g)
		s.dev = append(s.dev, probes)
		srv := pcmserve.NewServer(g, pcmserve.ServerConfig{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, fmt.Errorf("node %d listen: %w", i, err)
		}
		s.servers = append(s.servers, srv)
		s.serving.Add(1)
		go func() {
			defer s.serving.Done()
			srv.Serve(ln)
		}()
		s.nodes = append(s.nodes, ln.Addr().String())
	}

	if !w.clustered() {
		for i := 0; i < clients; i++ {
			c, err := pcmserve.Dial(s.nodes[0])
			if err != nil {
				s.close()
				return nil, fmt.Errorf("dial: %w", err)
			}
			s.conns = append(s.conns, c)
		}
		s.st = nodeStore{conns: s.conns}
		return s, nil
	}

	clusterSeed := derive(seed, w.name, "cluster")
	cfg := pcmcluster.Config{
		Nodes:               s.nodes,
		OpTimeout:           opTimeout,
		ProbeInterval:       100 * time.Millisecond,
		HintReplayInterval:  50 * time.Millisecond,
		AntiEntropyInterval: 5 * time.Millisecond,
		Seed:                clusterSeed,
		TraceSampleEvery:    1,
		SlowQuorumThreshold: 50 * time.Millisecond,
		SLOLatencyTarget:    100 * time.Millisecond,
	}
	if w.coding == "rf" {
		cfg.ReplicationFactor, cfg.WriteQuorum, cfg.ReadQuorum = 3, 2, 2
	} else {
		cfg.Coding = w.coding
	}
	if rec != nil {
		cfg.DialNode = s.tracingDialer(rec, clusterSeed)
	}
	c, err := pcmcluster.New(cfg)
	if err != nil {
		s.close()
		return nil, err
	}
	s.cluster = c
	s.st = clusterStore{c: c}
	return s, nil
}

// tracingDialer dials each node with the settings of pcmcluster's
// default dialer and wraps the connection in a span-recording probe.
func (s *stack) tracingDialer(rec *recorder, seed uint64) func(string) (pcmcluster.NodeClient, error) {
	budget := pcmserve.NewRetryBudget(0.1, 256)
	var mu sync.Mutex
	return func(addr string) (pcmcluster.NodeClient, error) {
		rc, err := pcmserve.DialRetry(addr, pcmserve.RetryConfig{
			MaxReadAttempts:  2,
			MaxWriteAttempts: 2,
			BaseBackoff:      time.Millisecond,
			MaxBackoff:       50 * time.Millisecond,
			OpTimeout:        opTimeout,
			Seed:             derive(seed, "node", addr),
			Budget:           budget,
		})
		if err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		node := -1
		for i, a := range s.nodes {
			if a == addr {
				node = i
			}
		}
		p := &nodeProbe{RetryClient: rc, node: node, rec: rec}
		s.rpcs = append(s.rpcs, p)
		return p, nil
	}
}

// close stops the client side, then drains and stops every node.
func (s *stack) close() {
	if s.cluster != nil {
		s.cluster.Close()
	}
	for _, c := range s.conns {
		c.Close()
	}
	var wg sync.WaitGroup
	for _, srv := range s.servers {
		wg.Add(1)
		go func(srv *pcmserve.Server) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}(srv)
	}
	wg.Wait()
	s.serving.Wait()
	for _, g := range s.shards {
		g.Close()
	}
}

// deviceBytes is the summed device capacity of every node.
func (s *stack) deviceBytes() int64 {
	var n int64
	for _, g := range s.shards {
		n += g.Size()
	}
	return n
}

// userBytes is the capacity the served interface exposes.
func (s *stack) userBytes() int64 {
	if s.cluster != nil {
		return s.cluster.Blocks() * pcmcluster.DataBytes
	}
	return s.shards[0].Size()
}

// blockSpan returns how many device blocks a byte range [off, off+n)
// touches (each one a block program when written) and how many of
// them it covers only partly (each one a read-modify-write read).
func blockSpan(off int64, n int) (blocks, partial int) {
	if n <= 0 {
		return 0, 0
	}
	end := off + int64(n)
	first, last := off/blockBytes, (end-1)/blockBytes
	blocks = int(last - first + 1)
	if off%blockBytes != 0 {
		partial++
	}
	if end%blockBytes != 0 && (last != first || off%blockBytes == 0) {
		partial++
	}
	return blocks, partial
}

// devCounts are one shard's device-call counters. Each shard device is
// owned by one goroutine, so the fields are only contended by readers.
type devCounts struct {
	reads, writes, programs, rmwReads uint64
	// readBusy and writeBusy accrue only while the recorder is on.
	readBusy, writeBusy time.Duration
}

func (a devCounts) busy() time.Duration { return a.readBusy + a.writeBusy }

func (a devCounts) sub(b devCounts) devCounts {
	return devCounts{
		reads: a.reads - b.reads, writes: a.writes - b.writes,
		programs: a.programs - b.programs, rmwReads: a.rmwReads - b.rmwReads,
		readBusy: a.readBusy - b.readBusy, writeBusy: a.writeBusy - b.writeBusy,
	}
}

func (a *devCounts) add(b devCounts) {
	a.reads += b.reads
	a.writes += b.writes
	a.programs += b.programs
	a.rmwReads += b.rmwReads
	a.readBusy += b.readBusy
	a.writeBusy += b.writeBusy
}

// devProbe wraps one shard device: it counts every call and, while the
// recorder is on, times it and records a span and the call itself for
// the replay ladder.
type devProbe struct {
	pcmserve.ShardDevice
	node, shard int
	rec         *recorder

	mu sync.Mutex
	c  devCounts
}

func (d *devProbe) counts() devCounts {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.c
}

func (d *devProbe) ReadAt(p []byte, off int64) (int, error) {
	t0, tracing := d.start()
	n, err := d.ShardDevice.ReadAt(p, off)
	busy := d.finish(tracing, false, off, p, t0, err)
	d.mu.Lock()
	d.c.reads++
	d.c.readBusy += busy
	d.mu.Unlock()
	return n, err
}

func (d *devProbe) WriteAt(p []byte, off int64) (int, error) {
	t0, tracing := d.start()
	n, err := d.ShardDevice.WriteAt(p, off)
	busy := d.finish(tracing, true, off, p, t0, err)
	blocks, partial := blockSpan(off, len(p))
	d.mu.Lock()
	d.c.writes++
	d.c.programs += uint64(blocks)
	d.c.rmwReads += uint64(partial)
	d.c.writeBusy += busy
	d.mu.Unlock()
	return n, err
}

// start reads the clock only while the recorder is on, so untraced
// runs pay no timing cost per device call.
func (d *devProbe) start() (t0 int64, tracing bool) {
	if d.rec == nil || !d.rec.on.Load() {
		return 0, false
	}
	return d.rec.now(), true
}

// finish records the call and returns its duration (0 when untraced).
func (d *devProbe) finish(tracing, write bool, off int64, p []byte, t0 int64, err error) time.Duration {
	if !tracing {
		return 0
	}
	t1 := d.rec.now()
	d.rec.deviceCall(d.node, d.shard, write, off, p, t0, t1, err)
	return time.Duration(t1 - t0)
}

// devTotals sums every shard's counters and also returns each shard's.
func (s *stack) devTotals() (total devCounts, perShard []devCounts) {
	for _, node := range s.dev {
		for _, p := range node {
			c := p.counts()
			total.add(c)
			perShard = append(perShard, c)
		}
	}
	return total, perShard
}

// nodeProbe wraps one replica connection and records a span per RPC
// while the recorder is on, parented through the op's trace id.
type nodeProbe struct {
	*pcmserve.RetryClient
	node int
	rec  *recorder
}

func (n *nodeProbe) ReadAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	t0 := n.start()
	k, err := n.RetryClient.ReadAtCtx(ctx, p, off)
	n.finish(ctx, spanRPCRead, t0, err)
	return k, err
}

func (n *nodeProbe) WriteAtCtx(ctx context.Context, p []byte, off int64) (int, error) {
	t0 := n.start()
	k, err := n.RetryClient.WriteAtCtx(ctx, p, off)
	n.finish(ctx, spanRPCWrite, t0, err)
	return k, err
}

func (n *nodeProbe) HashRangeCtx(ctx context.Context, off int64, recordBytes, count, fanout int) ([]pcmserve.RangeDigest, error) {
	t0 := n.start()
	d, err := n.RetryClient.HashRangeCtx(ctx, off, recordBytes, count, fanout)
	n.finish(ctx, spanRPCHash, t0, err)
	return d, err
}

func (n *nodeProbe) ReadStrideCtx(ctx context.Context, off int64, stride, recordBytes, count int) ([][]byte, error) {
	t0 := n.start()
	d, err := n.RetryClient.ReadStrideCtx(ctx, off, stride, recordBytes, count)
	n.finish(ctx, spanRPCStride, t0, err)
	return d, err
}

// start returns the RPC's start time, or -1 while the recorder is off.
func (n *nodeProbe) start() int64 {
	if !n.rec.on.Load() {
		return -1
	}
	return n.rec.now()
}

func (n *nodeProbe) finish(ctx context.Context, name string, t0 int64, err error) {
	if t0 >= 0 {
		n.rec.rpc(name, obs.TraceFromContext(ctx), n.node, t0, err)
	}
}

// retries sums the retried attempts of every traced replica connection.
func (s *stack) retries() uint64 {
	var n uint64
	for _, p := range s.rpcs {
		n += p.RetryStats().Retries
	}
	return n
}
