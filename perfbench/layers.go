package main

import (
	"fmt"
	"time"
)

// metricSpec names one reported metric. The lists below are the
// benchmark's definition; BENCHMARK.json at the repository root and
// interactions.json here must agree with them (see perfbench_test.go).
type metricSpec struct {
	name, unit, better string
}

// endToEndSpecs are measured with the benchmark's tracing off and make
// up the end-to-end run's result.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower"},
	{"throughput_ops", "ops/s", "higher"},
	{"read_p50_us", "us", "lower"},
	{"write_p50_us", "us", "lower"},
	{"success_ratio", "fraction", "higher"},
	{"programs_per_write", "blocks", "lower"},
	{"space_amp", "ratio", "lower"},
	{"rss_peak_mb", "MiB", "lower"},
}

// ungatedSpecs are printed by the end-to-end run but left out of its
// result, which BENCHMARK.json gates. The tails did not repeat: over ten
// seeds on the reference machine their quartile spread was 0.26 to 0.89
// of the median, because whole minutes of the shared host raised every
// window's tail. The error ratio is 0 on a healthy run; success_ratio
// carries it.
var ungatedSpecs = []metricSpec{
	{"read_p99_us", "us", "lower"},
	{"write_p99_us", "us", "lower"},
	{"error_ratio", "fraction", "lower"},
}

// layerSpecs are reported by the traced run. A layer the workload does
// not cross reports 0.
var layerSpecs = []metricSpec{
	{"gen.lag_p99_us", "us", "lower"},
	{"trace.overhead_frac", "fraction", "lower"},
	{"pcmcluster.write_self_us", "us", "lower"},
	{"pcmcluster.read_self_us", "us", "lower"},
	{"pcmcluster.quorum_gap_us", "us", "lower"},
	{"pcmcluster.rpcs_per_write", "count", "lower"},
	{"pcmcluster.rpcs_per_read", "count", "lower"},
	{"pcmcluster.bg_rpcs_per_op", "count", "lower"},
	{"pcmcluster.rpc_fail_per_op", "count", "lower"},
	{"pcmcluster.hedged_per_read", "count", "lower"},
	{"pcmcluster.reconstructions_per_read", "count", "lower"},
	{"pcmcluster.repairs_per_op", "count", "lower"},
	{"ecstripe.encode_us", "us", "lower"},
	{"ecstripe.reconstruct_us", "us", "lower"},
	{"pcmserve.rpc_write_us", "us", "lower"},
	{"pcmserve.rpc_read_us", "us", "lower"},
	{"pcmserve.self_us_per_rpc", "us", "lower"},
	{"pcmserve.shed_per_op", "count", "lower"},
	{"pcmlive.refresh_per_s", "1/s", "lower"},
	{"pcmlive.stall_s_per_write", "s", "lower"},
	{"pcmlive.deadline_misses", "count", "lower"},
	{"device.write_us", "us", "lower"},
	{"device.read_us", "us", "lower"},
	{"device.writes_per_op", "count", "lower"},
	{"device.reads_per_op", "count", "lower"},
	{"device.rmw_reads_per_write", "count", "lower"},
	{"device.busy_frac_max", "fraction", "lower"},
	{"device.replay_self_us", "us", "lower"},
	{"core.write_us", "us", "lower"},
	{"core.read_us", "us", "lower"},
	{"core.allocs_per_write", "count", "lower"},
	{"core.bytes_per_write", "B", "lower"},
	{"core.allocs_per_read", "count", "lower"},
	{"bch.encode_us", "us", "lower"},
	{"bch.decode_us", "us", "lower"},
	{"levels.optimize_s", "s", "lower"},
	{"proc.allocs_per_op", "count", "lower"},
	{"proc.alloc_bytes_per_op", "B", "lower"},
	{"proc.gc_cpu_frac", "fraction", "lower"},
}

// withUnits attaches each spec's unit to its value; every spec must
// have a value.
func withUnits(specs []metricSpec, vals map[string]float64) map[string]metric {
	m := make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok {
			panic(fmt.Sprintf("metric %s has no value", s.name)) // a bug in this file
		}
		m[s.name] = metric{Value: v, Unit: s.unit}
	}
	if len(vals) != len(specs) {
		panic("a metric value has no spec") // a bug in this file
	}
	return m
}

// delta is one traced phase's counters, taken before and after it.
type delta struct{ before, after snapshot }

// layerInput is everything a traced run measured.
type layerInput struct {
	w      workload
	spans  []span
	delta  []delta // the traced phases
	lag    []float64
	ladder ladder

	optimize                             float64
	untracedThroughput, tracedThroughput float64
	// procOps, mallocs, allocBytes and gcFrac cover the untraced
	// closed-loop phase.
	procOps, mallocs, allocBytes, gcFrac float64
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// layerMetrics derives every per-layer metric from a traced run.
func layerMetrics(in layerInput) map[string]float64 {
	w := in.w
	// Every metric of a layer the workload does not cross stays 0.
	v := make(map[string]float64, len(layerSpecs))
	for _, s := range layerSpecs {
		v[s.name] = 0
	}

	var ops, writes, reads, shed, retries, refreshes, stalls, misses float64
	var repairs, hedged, recons, wall float64
	var dev devCounts
	var busy []time.Duration
	for _, d := range in.delta {
		a, b := d.after, d.before
		ops += float64(a.attempted - b.attempted)
		writes += float64(a.writes - b.writes)
		reads += float64(a.reads - b.reads)
		shed += float64(a.shed - b.shed)
		retries += float64(a.retries - b.retries)
		refreshes += a.refreshes - b.refreshes
		stalls += a.stalls - b.stalls
		misses += float64(a.misses - b.misses)
		ac, bc := a.cluster, b.cluster
		repairs += float64(ac.ReadRepairs - bc.ReadRepairs + ac.HintsQueued - bc.HintsQueued)
		hedged += float64(ac.ECHedgedFanouts - bc.ECHedgedFanouts)
		recons += float64(ac.ECReconstructions - bc.ECReconstructions)
		wall += a.at.Sub(b.at).Seconds()
		dev.add(a.dev.sub(b.dev))
		if busy == nil {
			busy = make([]time.Duration, len(a.perShard))
		}
		for i := range a.perShard {
			busy[i] += a.perShard[i].busy() - b.perShard[i].busy()
		}
	}

	v["gen.lag_p99_us"], _ = percentile(in.lag, 0.99)
	v["trace.overhead_frac"] = 1 - ratio(in.tracedThroughput, in.untracedThroughput)

	// Spans: op spans, their replica-RPC children and background RPCs.
	var opSpans, rpcSpans []span
	for _, s := range in.spans {
		switch {
		case isOp(s):
			opSpans = append(opSpans, s)
		case isRPC(s):
			rpcSpans = append(rpcSpans, s)
		}
	}
	// On a single node the op span is the client-side RPC span.
	rpcs := rpcSpans
	if !w.clustered() {
		rpcs = opSpans
	}
	var rpcRead, rpcWrite []float64
	var rpcTime int64
	for _, s := range rpcs {
		rpcTime += s.dur()
		switch s.Name {
		case spanRPCRead, spanOpRead:
			rpcRead = append(rpcRead, us(s.dur()))
		case spanRPCWrite, spanOpWrite:
			rpcWrite = append(rpcWrite, us(s.dur()))
		}
	}
	v["pcmserve.rpc_write_us"] = mean(rpcWrite)
	v["pcmserve.rpc_read_us"] = mean(rpcRead)
	// Device time comes from the probes' counters: the span log keeps
	// only the first maxDeviceSpans device spans.
	v["pcmserve.self_us_per_rpc"] = ratio(us(rpcTime-int64(dev.busy())), float64(len(rpcs)))

	if w.clustered() {
		ids := opIDs(in.spans)
		children := map[uint64][]span{}
		var bgRPCs, failedRPCs float64
		for _, s := range rpcSpans {
			if s.Err {
				failedRPCs++
			}
			if ids[s.Trace] {
				children[s.Trace] = append(children[s.Trace], s)
			} else {
				bgRPCs++
			}
		}
		wq, rq := w.quorums()
		var writeSelf, readSelf, gaps []float64
		var writeRPCs, readRPCs, writeOps, readOps float64
		for _, s := range opSpans {
			kids := children[s.ID]
			q := rq
			if s.Name == spanOpWrite {
				q = wq
				writeOps++
				writeRPCs += float64(len(kids))
				writeSelf = append(writeSelf, us(selfTime(s, kids)))
			} else {
				readOps++
				readRPCs += float64(len(kids))
				readSelf = append(readSelf, us(selfTime(s, kids)))
			}
			if g, ok := quorumGap(kids, q); ok {
				gaps = append(gaps, us(g))
			}
		}
		v["pcmcluster.write_self_us"] = mean(writeSelf)
		v["pcmcluster.read_self_us"] = mean(readSelf)
		v["pcmcluster.quorum_gap_us"] = mean(gaps)
		v["pcmcluster.rpcs_per_write"] = ratio(writeRPCs, writeOps)
		v["pcmcluster.rpcs_per_read"] = ratio(readRPCs, readOps)
		v["pcmcluster.bg_rpcs_per_op"] = ratio(bgRPCs, ops)
		v["pcmcluster.rpc_fail_per_op"] = ratio(failedRPCs+retries, ops)
		v["pcmcluster.hedged_per_read"] = ratio(hedged, reads)
		v["pcmcluster.reconstructions_per_read"] = ratio(recons, reads)
		v["pcmcluster.repairs_per_op"] = ratio(repairs, ops)
	}
	v["pcmserve.shed_per_op"] = ratio(shed, ops)

	v["ecstripe.encode_us"] = in.ladder.ecEncodeUs
	v["ecstripe.reconstruct_us"] = in.ladder.ecReconUs

	v["pcmlive.refresh_per_s"] = ratio(refreshes, wall)
	v["pcmlive.stall_s_per_write"] = ratio(stalls, writes)
	v["pcmlive.deadline_misses"] = misses

	v["device.write_us"] = ratio(us(int64(dev.writeBusy)), float64(dev.writes))
	v["device.read_us"] = ratio(us(int64(dev.readBusy)), float64(dev.reads))
	v["device.writes_per_op"] = ratio(float64(dev.writes), ops)
	v["device.reads_per_op"] = ratio(float64(dev.reads), ops)
	v["device.rmw_reads_per_write"] = ratio(float64(dev.rmwReads), writes)
	var busiest time.Duration
	for _, b := range busy {
		busiest = max(busiest, b)
	}
	v["device.busy_frac_max"] = ratio(busiest.Seconds(), wall)
	v["device.replay_self_us"] = in.ladder.deviceSelfUs

	v["core.write_us"] = in.ladder.coreWriteUs
	v["core.read_us"] = in.ladder.coreReadUs
	v["core.allocs_per_write"] = in.ladder.allocsPerWrite
	v["core.bytes_per_write"] = in.ladder.bytesPerWrite
	v["core.allocs_per_read"] = in.ladder.allocsRead
	v["bch.encode_us"] = in.ladder.bchEncodeUs
	v["bch.decode_us"] = in.ladder.bchDecodeUs
	v["levels.optimize_s"] = in.optimize

	v["proc.allocs_per_op"] = ratio(in.mallocs, in.procOps)
	v["proc.alloc_bytes_per_op"] = ratio(in.allocBytes, in.procOps)
	v["proc.gc_cpu_frac"] = in.gcFrac
	return v
}
