// Command pcmcluster drives a replicated cluster of pcmserve nodes
// with quorum reads and writes, verifying that every read returns the
// exact last-acknowledged data — the client-side harness for the
// internal/pcmcluster replication layer.
//
// Usage:
//
//	pcmcluster -nodes h1:7070,h2:7070,h3:7070 -duration 10s   # load external nodes
//	pcmcluster -spawn 3 -duration 5s                          # self-contained: 3 in-process nodes
//	pcmcluster -nodes ... -obs :9091                          # + admin plane (/metrics, /healthz)
//	pcmcluster -nodes h1:7070,h2:7070,h3:7070 -drain h2:7070  # drain one node, report safe-to-stop
//	pcmcluster -spawn 3 -join-at 2s -drain-at 4s -duration 8s # membership churn under load
//
// The load generator partitions the block space across workers; each
// worker mirrors its acknowledged writes and checks every read against
// the mirror. Quorum errors under failure are tolerated (and counted);
// a read returning wrong bytes is a data error, and any data error
// makes the process exit nonzero — as does a hinted-handoff overflow
// drop (dropped_overflow), which silently widens the divergence window
// and means the run was undersized for its hint capacity. Blocks this
// run never wrote are required to read as zeros only in -spawn mode
// (fresh nodes); an external -nodes fleet may legitimately hold data
// from earlier runs. The final report prints "data errors: N" even
// when the run is cut short by SIGINT.
//
// Membership actions: -drain re-replicates the named node's slots,
// fences it, replays its pending hints, and prints safe-to-stop.
// In -spawn mode, -join-at spawns one extra node mid-run and joins it
// under load; -drain-at drains the first spawned node mid-run and then
// stops its server gracefully. SIGINT/SIGTERM stops the loadgen early
// and still shuts every spawned node down via graceful drain.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/pcmcluster"
	"repro/internal/pcmserve"
)

func main() {
	var (
		nodesArg = flag.String("nodes", "", "comma-separated pcmserve node addresses")
		spawn    = flag.Int("spawn", 0, "spawn this many in-process loopback nodes instead of -nodes")
		mb       = flag.Float64("mb", 1, "spawned nodes: per-node capacity in MiB")
		shards   = flag.Int("shards", 4, "spawned nodes: device shards per node")

		rf = flag.Int("rf", 0, "replication factor (default min(3, nodes))")
		w  = flag.Int("w", 0, "write quorum (default rf/2+1)")
		r  = flag.Int("r", 0, "read quorum (default rf/2+1)")
		ec = flag.String("ec", "", "erasure coding \"K+M\" (e.g. 4+2): Reed-Solomon stripe each block onto K+M nodes instead of mirroring (mutually exclusive with -rf/-w/-r)")

		clients  = flag.Int("clients", 4, "concurrent loadgen workers")
		duration = flag.Duration("duration", 3*time.Second, "how long to run")
		readPct  = flag.Int("readpct", 50, "percentage of ops that are reads")
		span     = flag.Int64("blocks", 0, "restrict the loadgen to the first N blocks (0 = all)")

		antiEntropy = flag.Duration("antientropy", 5*time.Millisecond, "per-partition anti-entropy sweep cadence (0 disables)")
		hintReplay  = flag.Duration("hint-replay", 50*time.Millisecond, "hinted-handoff replay cadence")
		probe       = flag.Duration("probe", 100*time.Millisecond, "down-node half-open probe interval")
		opTimeout   = flag.Duration("optimeout", 2*time.Second, "per-replica operation timeout")
		seed        = flag.Uint64("seed", 0, "seed for version tags, retry jitter, and spawned devices (0 = random per process)")
		obsAddr     = flag.String("obs", "", "admin HTTP listen address for /metrics, /healthz, /tracez, /clusterz (empty disables)")
		nodeObs     = flag.String("node-obs", "", "comma-separated addr=url pairs mapping -nodes addresses to their admin-plane base URLs, for /clusterz trace stitching (spawn mode wires this automatically)")
		traceSample = flag.Int("trace-sample", 1, "keep one in N fast cluster traces (1 keeps all; slow traces always kept)")
		slowQuorum  = flag.Duration("slow-quorum", 50*time.Millisecond, "time-to-quorum past which an op enters the slow-quorum log (negative disables)")
		noTrace     = flag.Bool("notrace", false, "disable the trace plane entirely (the untraced baseline for overhead measurement)")
		sloTarget   = flag.Duration("slo-latency", 100*time.Millisecond, "latency SLO: quorum ops at or under this count good")

		drainArg = flag.String("drain", "", "admin action: drain this node from the -nodes cluster, report safe-to-stop, and exit (no loadgen)")
		joinAt   = flag.Duration("join-at", 0, "spawn mode: spawn and join one extra node this long into the run (0 disables)")
		drainAt  = flag.Duration("drain-at", 0, "spawn mode: drain and stop the first spawned node this long into the run (0 disables)")

		version = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("pcmcluster", obs.BuildInfo())
		return
	}

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "pcmcluster: "+format+"\n", args...)
		os.Exit(2)
	}
	switch {
	case *nodesArg == "" && *spawn == 0:
		fail("need -nodes or -spawn")
	case *nodesArg != "" && *spawn > 0:
		fail("-nodes and -spawn are mutually exclusive")
	case *spawn < 0:
		fail("-spawn must not be negative, got %d", *spawn)
	case *mb <= 0:
		fail("-mb must be positive, got %g", *mb)
	case *shards < 1:
		fail("-shards must be at least 1, got %d", *shards)
	case *rf < 0 || *w < 0 || *r < 0:
		fail("-rf, -w, -r must not be negative")
	case *ec != "" && *rf != 0:
		fail("-ec %s and -rf %d conflict: erasure coding fixes the replication factor at K+M; drop -rf or -ec", *ec, *rf)
	case *ec != "" && (*w != 0 || *r != 0):
		fail("-ec %s conflicts with -w/-r: erasure coding fixes the quorums at W=K+⌈M/2⌉, R=K", *ec)
	case *clients < 1:
		fail("-clients must be at least 1, got %d", *clients)
	case *duration <= 0:
		fail("-duration must be positive, got %v", *duration)
	case *readPct < 0 || *readPct > 100:
		fail("-readpct must be in [0,100], got %d", *readPct)
	case *span < 0:
		fail("-blocks must not be negative, got %d", *span)
	case *hintReplay <= 0:
		fail("-hint-replay must be positive, got %v", *hintReplay)
	case *probe <= 0:
		fail("-probe must be positive, got %v", *probe)
	case *opTimeout <= 0:
		fail("-optimeout must be positive, got %v", *opTimeout)
	case *antiEntropy < 0:
		fail("-antientropy must not be negative, got %v", *antiEntropy)
	case *drainArg != "" && *nodesArg == "":
		fail("-drain is an admin action against an external -nodes cluster")
	case *joinAt < 0 || *drainAt < 0:
		fail("-join-at and -drain-at must not be negative")
	case (*joinAt > 0 || *drainAt > 0) && *spawn == 0:
		fail("-join-at and -drain-at need -spawn (they manage in-process nodes)")
	case *joinAt >= *duration && *joinAt > 0:
		fail("-join-at %v must fall inside -duration %v", *joinAt, *duration)
	case *drainAt >= *duration && *drainAt > 0:
		fail("-drain-at %v must fall inside -duration %v", *drainAt, *duration)
	case *traceSample < 1:
		fail("-trace-sample must be at least 1, got %d", *traceSample)
	case *sloTarget <= 0:
		fail("-slo-latency must be positive, got %v", *sloTarget)
	case *nodeObs != "" && *spawn > 0:
		fail("-node-obs maps external -nodes addresses; spawn mode wires node admin planes automatically")
	}

	// Node admin-plane URLs feed /clusterz trace stitching: spawn mode
	// fills these as nodes come up; external fleets declare them.
	nodeAdminURLs := make(map[string]string)
	if *nodeObs != "" {
		for _, pair := range strings.Split(*nodeObs, ",") {
			addr, url, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok || addr == "" || url == "" {
				fail("-node-obs entry %q is not addr=url", pair)
			}
			nodeAdminURLs[addr] = url
		}
	}

	devSeed := *seed
	if devSeed == 0 {
		devSeed = 1 // device sim wants a deterministic nonzero seed
	}
	fleet := newFleet()
	var addrs []string
	if *spawn > 0 {
		for i := 0; i < *spawn; i++ {
			addrs = append(addrs, fleet.spawn(fail, *mb, *shards, devSeed+uint64(i)*1000))
		}
		fmt.Printf("pcmcluster: spawned %d loopback nodes: %s\n", *spawn, strings.Join(addrs, ", "))
	} else {
		for _, a := range strings.Split(*nodesArg, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				fail("-nodes contains an empty address: %q", *nodesArg)
			}
			addrs = append(addrs, a)
		}
	}

	coding := ""
	if *ec != "" {
		coding = "rs:" + *ec
	}
	c, err := pcmcluster.New(pcmcluster.Config{
		Nodes:               addrs,
		Coding:              coding,
		ReplicationFactor:   *rf,
		WriteQuorum:         *w,
		ReadQuorum:          *r,
		OpTimeout:           *opTimeout,
		ProbeInterval:       *probe,
		HintReplayInterval:  *hintReplay,
		AntiEntropyInterval: *antiEntropy,
		Seed:                *seed,
		TraceSampleEvery:    *traceSample,
		SlowQuorumThreshold: *slowQuorum,
		DisableTracing:      *noTrace,
		SLOLatencyTarget:    *sloTarget,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcmcluster:", err)
		os.Exit(1)
	}
	defer c.Close()

	if *drainArg != "" {
		runDrainAction(c, *drainArg)
		return
	}

	if *obsAddr != "" {
		ln, err := net.Listen("tcp", *obsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "obs listen:", err)
			os.Exit(1)
		}
		// Stitch sources: spawn mode tracks its own fleet (join/drain
		// keep it current); external fleets use the -node-obs mapping.
		sources := fleet.sources
		if *spawn == 0 {
			sources = func() []obs.StitchSource {
				out := make([]obs.StitchSource, 0, len(nodeAdminURLs))
				for addr, url := range nodeAdminURLs {
					out = append(out, obs.StitchSource{Node: addr, URL: url})
				}
				return out
			}
		}
		obsSrv := &http.Server{Handler: obs.AdminHandler(obs.AdminConfig{
			Registry:    c.Registry(),
			Health:      c.Health,
			Traces:      c.Traces(),
			ClusterInfo: func() any { return c.Clusterz() },
			Stitcher:    &obs.Stitcher{Local: c.Traces(), Sources: sources},
		})}
		go obsSrv.Serve(ln)
		defer obsSrv.Close()
		fmt.Printf("pcmcluster: admin plane (metrics, healthz, tracez, clusterz) on %s\n", ln.Addr())
	}

	blocks := c.Blocks()
	if *span > 0 && *span < blocks {
		blocks = *span
	}
	if blocks < int64(*clients) {
		fail("only %d blocks for %d clients; shrink -clients or grow the nodes", blocks, *clients)
	}
	st := c.Stats()
	fmt.Printf("pcmcluster: %d nodes, coding=%s rf=%d w=%d r=%d overhead=%.2fx, %d blocks (%d in play)\n",
		len(addrs), st.Coding, st.ReplicationFactor, st.WriteQuorum, st.ReadQuorum,
		st.StorageOverhead, c.Blocks(), blocks)

	// Membership churn rides alongside the loadgen: the join spawns a
	// fresh node and streams it in; the drain re-replicates node 1's
	// slots and then stops its server for real. Cluster.memMu serializes
	// the two, so -join-at < -drain-at simply queues the drain behind
	// the join.
	var memWG sync.WaitGroup
	var memErrs atomic.Uint64
	if *joinAt > 0 {
		memWG.Add(1)
		go func() {
			defer memWG.Done()
			time.Sleep(*joinAt)
			addr := fleet.spawn(fail, *mb, *shards, devSeed+uint64(*spawn)*1000)
			fmt.Printf("pcmcluster: joining %s mid-run\n", addr)
			if err := c.Join(context.Background(), addr); err != nil {
				fmt.Fprintf(os.Stderr, "pcmcluster: join %s: %v\n", addr, err)
				memErrs.Add(1)
				return
			}
			fmt.Printf("pcmcluster: joined %s (caught up, serving reads)\n", addr)
		}()
	}
	if *drainAt > 0 {
		memWG.Add(1)
		go func() {
			defer memWG.Done()
			time.Sleep(*drainAt)
			target := addrs[0]
			fmt.Printf("pcmcluster: draining %s mid-run\n", target)
			if err := c.Drain(context.Background(), target); err != nil {
				fmt.Fprintf(os.Stderr, "pcmcluster: drain %s: %v\n", target, err)
				memErrs.Add(1)
				return
			}
			fmt.Printf("pcmcluster: drained %s; stopping its server\n", target)
			if err := fleet.stop(target); err != nil {
				fmt.Fprintf(os.Stderr, "pcmcluster: stop %s: %v\n", target, err)
				memErrs.Add(1)
			}
		}()
	}

	dataErrors := runLoadgen(c, blocks, *clients, *duration, *readPct, *spawn > 0)
	memWG.Wait()

	report(c, dataErrors)

	// Spawned servers get the same graceful drain a SIGTERMed external
	// node would: stop client traffic first, then shut each down and
	// wait for in-flight requests.
	c.Close()
	fleet.stopAll()

	final := c.Stats()
	exit := 0
	if dataErrors > 0 {
		exit = 1
	}
	if final.HintsDroppedFull > 0 {
		fmt.Fprintf(os.Stderr, "pcmcluster: FAILED: %d hints dropped on overflow (divergence window exceeded hint capacity)\n",
			final.HintsDroppedFull)
		exit = 1
	}
	if memErrs.Load() > 0 {
		fmt.Fprintf(os.Stderr, "pcmcluster: FAILED: %d membership actions failed\n", memErrs.Load())
		exit = 1
	}
	if exit != 0 {
		os.Exit(exit)
	}
}

// runDrainAction is the -drain admin path: one planned removal, then
// a safe-to-stop report. SIGINT/SIGTERM aborts the drain cleanly (the
// cluster reverts to the old placement).
func runDrainAction(c *pcmcluster.Cluster, target string) {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	start := time.Now()
	fmt.Printf("pcmcluster: draining %s (re-replicating its slots, then fencing writes)\n", target)
	if err := c.Drain(ctx, target); err != nil {
		fmt.Fprintf(os.Stderr, "pcmcluster: drain %s: %v\n", target, err)
		os.Exit(1)
	}
	st := c.Stats()
	fmt.Printf("drain: done in %v: slots pushed=%d skipped=%d, segments=%d resumes=%d, hints replayed=%d stale=%d\n",
		time.Since(start).Round(time.Millisecond),
		st.TransferSlotsPushed, st.TransferSlotsSkipped,
		st.TransferSegments, st.TransferResumes,
		st.DrainHintsReplayed, st.DrainHintsStale)
	fmt.Printf("pcmcluster: %s is out of every placement and fenced — safe to stop\n", target)
}

// fleet tracks the in-process pcmserve nodes this run spawned so
// membership actions and shutdown can stop them gracefully. Every
// spawned node also gets its own loopback admin plane (per-node
// /tracez for trace stitching, sampled at keep-everything).
type fleet struct {
	mu     sync.Mutex
	srvs   map[string]*pcmserve.Server
	admins map[string]*http.Server
	urls   map[string]string // node addr → admin base URL
}

func newFleet() *fleet {
	return &fleet{
		srvs:   make(map[string]*pcmserve.Server),
		admins: make(map[string]*http.Server),
		urls:   make(map[string]string),
	}
}

// spawn brings up one in-process pcmserve node on a loopback port and
// returns its address.
func (f *fleet) spawn(fail func(string, ...any), mb float64, shards int, seed uint64) string {
	blocksPerShard := int(mb*1024*1024) / 64 / shards
	if blocksPerShard < 1 {
		blocksPerShard = 1
	}
	g, err := pcmserve.NewShards(pcmserve.ShardsConfig{
		Shards: shards,
		Device: device.Config{Blocks: blocksPerShard, Seed: seed, DisableWearout: true},
		Obs:    &pcmserve.Observability{TraceSampleEvery: 1},
	})
	if err != nil {
		fail("spawn node: %v", err)
	}
	srv := pcmserve.NewServer(g, pcmserve.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail("spawn node listen: %v", err)
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()

	adminLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail("spawn node admin listen: %v", err)
	}
	adminSrv := &http.Server{Handler: srv.AdminHandler()}
	go adminSrv.Serve(adminLn)

	f.mu.Lock()
	f.srvs[addr] = srv
	f.admins[addr] = adminSrv
	f.urls[addr] = "http://" + adminLn.Addr().String()
	f.mu.Unlock()
	return addr
}

// sources snapshots the live node admin planes for trace stitching.
func (f *fleet) sources() []obs.StitchSource {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]obs.StitchSource, 0, len(f.urls))
	for addr, url := range f.urls {
		out = append(out, obs.StitchSource{Node: addr, URL: url})
	}
	return out
}

// stop gracefully shuts down one spawned node and its admin plane.
func (f *fleet) stop(addr string) error {
	f.mu.Lock()
	srv := f.srvs[addr]
	admin := f.admins[addr]
	delete(f.srvs, addr)
	delete(f.admins, addr)
	delete(f.urls, addr)
	f.mu.Unlock()
	if srv == nil {
		return fmt.Errorf("no spawned node at %s", addr)
	}
	if admin != nil {
		admin.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// stopAll gracefully shuts down every still-running spawned node.
func (f *fleet) stopAll() {
	f.mu.Lock()
	srvs := f.srvs
	admins := f.admins
	f.srvs = make(map[string]*pcmserve.Server)
	f.admins = make(map[string]*http.Server)
	f.urls = make(map[string]string)
	f.mu.Unlock()
	for _, admin := range admins {
		admin.Close()
	}
	var wg sync.WaitGroup
	for addr, srv := range srvs {
		wg.Add(1)
		go func(addr string, srv *pcmserve.Server) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "pcmcluster: stop %s: %v\n", addr, err)
			}
		}(addr, srv)
	}
	wg.Wait()
}

// runLoadgen drives the cluster with workers that own disjoint block
// sets, mirror acknowledged writes, and verify every read. It returns
// the number of data errors — reads that decoded cleanly but did not
// match the last-acknowledged bytes, the failure replication exists to
// prevent. fresh marks nodes this process spawned empty: only then may
// never-written blocks be required to read as zeros (an external fleet
// can hold real data from earlier runs). SIGINT/SIGTERM stops the run
// early.
func runLoadgen(c *pcmcluster.Cluster, blocks int64, clients int, duration time.Duration, readPct int, fresh bool) uint64 {
	var ops, quorumErrs, shedErrs, dataErrs atomic.Uint64

	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	timer := time.AfterFunc(duration, halt)
	defer timer.Stop()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		if s, ok := <-sig; ok {
			fmt.Printf("pcmcluster: %v, stopping early\n", s)
			halt()
		}
	}()

	ctx := context.Background()
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*101 + 5))
			lastAcked := make(map[int64][]byte)
			data := make([]byte, pcmcluster.DataBytes)
			ownSpan := int(blocks) / clients
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				b := int64(rng.Intn(ownSpan)*clients + w)
				if rng.Intn(100) >= readPct { // write
					for i := range data {
						data[i] = byte(w*31 + iter*7 + i)
					}
					if err := c.WriteBlock(ctx, b, data); err != nil {
						if isShed(err) {
							shedErrs.Add(1)
						} else {
							quorumErrs.Add(1)
						}
						lastAcked[b] = nil // undefined until re-acknowledged
						continue
					}
					lastAcked[b] = append([]byte(nil), data...)
					ops.Add(1)
					continue
				}
				got, err := c.ReadBlock(ctx, b)
				if err != nil {
					if isShed(err) {
						shedErrs.Add(1)
					} else {
						quorumErrs.Add(1)
					}
					if errors.Is(err, pcmcluster.ErrClosed) {
						return
					}
					continue
				}
				ops.Add(1)
				want, wrote := lastAcked[b]
				switch {
				case !wrote:
					if fresh && !bytes.Equal(got, make([]byte, pcmcluster.DataBytes)) {
						dataErrs.Add(1)
					}
				case want == nil:
					// Unverifiable after an unacknowledged write.
				default:
					if !bytes.Equal(got, want) {
						dataErrs.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	done := ops.Load()
	fmt.Printf("loadgen: %d clients, %v: %d ops (%.0f ops/s), %d quorum errors, %d shed, data errors: %d\n",
		clients, elapsed.Round(time.Millisecond), done,
		float64(done)/elapsed.Seconds(), quorumErrs.Load(), shedErrs.Load(), dataErrs.Load())
	return dataErrs.Load()
}

// isShed classifies a failed quorum op as typed overload control —
// the server shedding load, a request outliving its deadline, or the
// client retiring its retry budget — rather than a node fault. Shed
// ops are expected output of graceful degradation (report them as
// their own class, never a test failure); the quorum error wraps the
// last replica error with %w, so errors.Is sees through it.
func isShed(err error) bool {
	return errors.Is(err, pcmserve.ErrOverloaded) ||
		errors.Is(err, pcmserve.ErrDeadlineExceeded) ||
		errors.Is(err, pcmserve.ErrRetryBudgetExhausted)
}

// report prints the cluster's own accounting — quorum traffic,
// degraded operations, repairs, hints, membership changes, Merkle
// anti-entropy, breaker transitions, and per-node state — even when
// the run was cut short.
func report(c *pcmcluster.Cluster, dataErrors uint64) {
	st := c.Stats()
	fmt.Printf("cluster: coding=%s overhead=%.2fx reads=%d writes=%d read_quorum_failures=%d write_quorum_failures=%d degraded(r/w)=%d/%d\n",
		st.Coding, st.StorageOverhead,
		st.QuorumReads, st.QuorumWrites, st.ReadQuorumFailures, st.WriteQuorumFails,
		st.DegradedReads, st.DegradedWrites)
	if st.Coding != "rf" {
		fmt.Printf("ec: reconstructions=%d reconstruct_failures=%d hedged_fanouts=%d fragment_repairs=%d realigned=%d\n",
			st.ECReconstructions, st.ECReconstructFailures, st.ECHedgedFanouts,
			st.ECFragmentRepairs, st.ECFragmentsRealigned)
	}
	fmt.Printf("repair: read=%d antientropy=%d skipped=%d failed=%d divergent(stale/corrupt)=%d/%d\n",
		st.ReadRepairs, st.AntiEntropyRepairs, st.RepairsSkipped, st.RepairsFailed,
		st.DivergentStale, st.DivergentCorrupt)
	fmt.Printf("hints: queued=%d replayed=%d dropped(stale/overflow/obsolete)=%d/%d/%d down_transitions=%d\n",
		st.HintsQueued, st.HintsReplayed, st.HintsDroppedStale, st.HintsDroppedFull,
		st.HintsDroppedObsolete, st.NodeDownTransitions)
	if st.AntiEntropyPasses > 0 || st.AntiEntropyClean > 0 || st.MerkleDigestRPCs > 0 {
		fmt.Printf("antientropy: passes=%d clean=%d unavailable=%d throttled=%d reads=%d slots=%d\n",
			st.AntiEntropyPasses, st.AntiEntropyClean, st.AntiEntropyUnavailable,
			st.AntiEntropyThrottled, st.AntiEntropyReadRPCs, st.AntiEntropySlotsRead)
		fmt.Printf("merkle: digest_rpcs=%d slots_fetched=%d parts(clean/divergent/unavailable)=%d/%d/%d fallback_sweeps=%d\n",
			st.MerkleDigestRPCs, st.MerkleSlotsFetched,
			st.MerklePartsClean, st.MerklePartsDivergent, st.MerklePartsUnavailable,
			st.MerkleFallbackSweeps)
	}
	if st.OverloadEvents > 0 || st.RetryBudgetExhausted > 0 || st.BrownoutLevel > 0 {
		fmt.Printf("overload: shed_verdicts=%d retry_budget_exhausted=%d ae_paused=%d repairs_deferred=%d brownout_level=%d\n",
			st.OverloadEvents, st.RetryBudgetExhausted, st.AntiEntropyPaused,
			st.RepairsDeferred, st.BrownoutLevel)
	}
	if st.JoinsStarted > 0 || st.DrainsStarted > 0 {
		fmt.Printf("membership: joins=%d/%d drains=%d/%d aborted(j/d)=%d/%d segments=%d resumes=%d slots(pushed/skipped)=%d/%d drain_hints(replayed/stale)=%d/%d\n",
			st.JoinsCompleted, st.JoinsStarted, st.DrainsCompleted, st.DrainsStarted,
			st.JoinsAborted, st.DrainsAborted,
			st.TransferSegments, st.TransferResumes,
			st.TransferSlotsPushed, st.TransferSlotsSkipped,
			st.DrainHintsReplayed, st.DrainHintsStale)
	}
	for _, n := range st.Nodes {
		fmt.Printf("  node %s [%s]: reads=%d writes=%d errors=%d hints_pending=%d\n",
			n.Addr, n.State, n.Reads, n.Writes, n.Errors, n.HintsPending)
	}
	for _, s := range st.SLOs {
		status := "met"
		if !s.Met {
			status = "MISSED"
		}
		fmt.Printf("slo %s: objective=%.4f good=%d bad=%d burn=%.2f [%s]\n",
			s.Name, s.Objective, s.WindowGood, s.WindowBad, s.BurnRate, status)
	}
	if st.SlowQuorums > 0 {
		fmt.Printf("slow quorums: %d total, most recent:\n", st.SlowQuorums)
		entries := c.SlowQuorums()
		if len(entries) > 5 {
			entries = entries[len(entries)-5:]
		}
		for _, e := range entries {
			fmt.Printf("  %s %s block=%d quorum=%s straggler=%s class=%s trace=%s\n",
				e.Time.Format("15:04:05.000"), e.Op, e.Block,
				e.QuorumLatency.Round(time.Millisecond), e.Straggler, e.ErrClass, e.TraceID)
		}
	}
	if dataErrors > 0 {
		fmt.Fprintf(os.Stderr, "pcmcluster: FAILED: %d reads returned wrong data\n", dataErrors)
	}
}
