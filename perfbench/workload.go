package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/device"
)

// Every workload serves the same working set: blockBytes-sized blocks
// with uniform keys, many more rows than clients, driven by a fixed
// number of clients (the 2 vCPUs of the reference machine).
const (
	blockBytes = 64
	workingSet = 2048 // blocks: 128 KiB of user data
	clients    = 2
)

// workload is one seeded traffic mix over one served stack.
type workload struct {
	name string
	// nodes in-process pcmserve nodes, each with shards device shards
	// over nodeBytes bytes of device capacity.
	nodes, shards int
	nodeBytes     int
	arch          device.ArchKind
	// live serves pcmlive drift-model 4LCo shards with the paper's
	// refresh interval and write budget instead of classic devices.
	live bool
	// coding is "" for one node reached through pcmserve.Client, else
	// the pcmcluster redundancy scheme.
	coding  string
	readPct int
	// offered is the open-loop rate in ops/s: a constant, about an eighth
	// of the closed-loop throughput measured when the benchmark was
	// defined, so that every commit sees the same offered load. At half
	// or a quarter of it, the slow spells of a shared 2-vCPU machine
	// pushed the open loop into queueing and the medians did not repeat.
	offered float64
}

// workloads are documented, with the reason each exists, in
// BENCHMARK.json and README.md.
var workloads = []workload{
	{
		name: "node-4lco", nodes: 1, shards: 4, nodeBytes: workingSet * blockBytes,
		arch: device.FourLC, readPct: 50, offered: 250,
	},
	{
		// 256 KiB nodes hold the 160 KiB of mirrored slots the working
		// set needs; 1 MiB 3LC nodes peak at 1.8 GB of resident memory.
		name: "cluster-rf3", nodes: 3, shards: 4, nodeBytes: 256 << 10,
		arch: device.ThreeLC, coding: "rf", readPct: 70, offered: 150,
	},
	{
		name: "cluster-rs42-live", nodes: 6, shards: 4, nodeBytes: 1 << 20,
		arch: device.FourLC, live: true, coding: "rs:4+2", readPct: 70, offered: 500,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// clustered reports whether the workload runs a pcmcluster quorum.
func (w workload) clustered() bool { return w.coding != "" }

// quorums returns the write and read quorum sizes of the workload's
// cluster (0, 0 for a single node).
func (w workload) quorums() (wq, rq int) {
	switch w.coding {
	case "rf":
		return 2, 2
	case "rs:4+2":
		return 5, 4
	}
	return 0, 0
}

// splitmix64 advances *s and returns the next output of the SplitMix64
// generator.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// derive returns a nonzero seed for one named component (a device, a
// node, the cluster, an op stream) of one run.
func derive(seed uint64, parts ...any) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, seed)
	for _, p := range parts {
		fmt.Fprintf(h, "/%v", p)
	}
	s := h.Sum64()
	if v := splitmix64(&s); v != 0 {
		return v
	}
	return 1
}

// op is one client operation. val seeds the bytes a write stores and is
// unique per op, so a stale read never matches by accident.
type op struct {
	write bool
	key   int64
	val   uint64
}

// opGen is a stream of ops: a pure function of (workload, seed, stream).
type opGen struct {
	state   uint64
	readPct uint64
}

func newOpGen(w workload, seed uint64, stream string) *opGen {
	return &opGen{state: derive(seed, w.name, stream), readPct: uint64(w.readPct)}
}

func (g *opGen) next() op {
	r := splitmix64(&g.state)
	return op{
		write: r%100 >= g.readPct,
		key:   int64((r >> 32) % workingSet),
		val:   splitmix64(&g.state),
	}
}

// blockData returns the 64 bytes a write with seed val stores.
func blockData(val uint64) []byte {
	b := make([]byte, blockBytes)
	s := val
	for i := 0; i < blockBytes; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], splitmix64(&s))
	}
	return b
}
