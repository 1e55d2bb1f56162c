// Command perfbench is the repository's served-path benchmark. It runs
// one seeded workload against in-process pcmserve nodes on loopback TCP
// (optionally under a pcmcluster quorum), checks every read, and prints
// the end-to-end metrics (-trace 0) or the per-layer metrics of a traced
// run (-trace 1). The last line of standard output is one JSON object.
//
//	perfbench -workload node-4lco -seed 1 -seconds 10 -trace 0
//
// See README.md in this directory for the workloads, the metrics and
// the span format.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/device"
	"repro/internal/levels"
	"repro/internal/pcmcluster"
)

// processStart approximates the process start: package initialization
// runs before main, microseconds after exec.
var processStart = time.Now()

// setupSamples is how many fresh processes measure setup_s in one run:
// the run itself plus setupSamples-1 setup-only children.
const setupSamples = 3

// warmup is the untimed closed-loop phase after prefill.
const warmup = time.Second

// window is the length of one open-loop window plus the closed-loop
// window after it in an end-to-end run; the open loop takes openShare
// of it, since at its low offered rate it needs the time for samples.
const (
	window    = 2 * time.Second
	openShare = 0.75
)

func main() {
	var (
		name      = flag.String("workload", "", "workload name: node-4lco, cluster-rf3 or cluster-rs42-live")
		seed      = flag.Uint64("seed", 1, "workload seed; every device, node, cluster and op-stream seed derives from it")
		seconds   = flag.Float64("seconds", 10, "measured seconds (open-loop plus closed-loop phases)")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: traced run with per-layer metrics")
		out       = flag.String("out", ".bench_build", "directory for span files")
		setupOnly = flag.Bool("setup-only", false, "build the stack, serve one op, print setup seconds and exit")

		// The open-loop ticker child (see ticker.go).
		ticks        = flag.Int("ticks", 0, "run as the open-loop ticker: this many ticks")
		tickStart    = flag.Int64("tick-start", 0, "ticker: first tick, Unix nanoseconds")
		tickInterval = flag.Duration("tick-interval", 0, "ticker: time between ticks")
	)
	flag.Parse()
	if *ticks > 0 {
		if err := runTicker(*tickStart, *tickInterval, *ticks); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench ticker:", err)
			os.Exit(1)
		}
		return
	}
	// One P: on the 2-vCPU reference machine the host grants the second
	// vCPU only part of the time, and with two Ps the closed-loop
	// throughput swung twofold between runs. With one P the served stack
	// still interleaves its goroutines (2 clients, the nodes, their
	// shards) on one CPU.
	runtime.GOMAXPROCS(1)
	w, err := findWorkload(*name)
	if err == nil && (*trace != 0 && *trace != 1) {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("-seconds must be positive, got %g", *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *setupOnly {
		st, setup, err := setUp(w, *seed, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		st.close()
		fmt.Printf("setup_s %.9f\n", setup)
		return
	}
	d := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 1 {
		res, err = tracedRun(w, *seed, d, *out)
	} else {
		res, err = endToEndRun(w, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: workload %s seed %d: %v\n", w.name, *seed, err)
		os.Exit(1)
	}
	res.print()
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: workload %s seed %d returned wrong data\n", w.name, *seed)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r result) print() {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	fmt.Println(string(b))
}

// setUp builds the stack and serves the first op, returning the seconds
// since process start. The first op reads block 0 of the fresh system,
// which must read as zeros.
func setUp(w workload, seed uint64, rec *recorder) (*stack, float64, error) {
	st, err := buildStack(w, seed, rec)
	if err != nil {
		return nil, 0, err
	}
	got, err := st.st.read(context.Background(), 0, 0)
	if err != nil {
		st.close()
		return nil, 0, fmt.Errorf("first op: %w", err)
	}
	if !bytes.Equal(got, make([]byte, blockBytes)) {
		st.close()
		return nil, 0, fmt.Errorf("first op: fresh block 0 reads %x, want zeros", got)
	}
	return st, time.Since(processStart).Seconds(), nil
}

// prepare prefills and verifies the working set and warms up.
func prepare(r *runner) error {
	ctx := context.Background()
	if err := r.prefill(ctx); err != nil {
		return err
	}
	r.closedLoop(ctx, "warmup", warmup)
	return nil
}

// snapshot is every counter a run takes deltas of.
type snapshot struct {
	at                time.Time
	attempted, failed uint64
	writes, reads     uint64
	dev               devCounts
	perShard          []devCounts
	cluster           pcmcluster.ClusterStats
	shed              uint64
	refreshes, stalls float64
	misses            uint64
	retries           uint64
}

func take(s *stack, r *runner) snapshot {
	sn := snapshot{
		at:        time.Now(),
		attempted: r.attempted.Load(), failed: r.failed.Load(),
		writes: r.writes.Load(), reads: r.reads.Load(),
		retries: s.retries(),
	}
	sn.dev, sn.perShard = s.devTotals()
	if s.cluster != nil {
		sn.cluster = s.cluster.Stats()
	}
	for _, g := range s.shards {
		o := g.OverloadStats()
		sn.shed += o.ShedBackground + o.ShedForeground + o.ExpiredDequeued
		if s.w.live {
			l := g.LiveStats()
			sn.refreshes += float64(l.RefreshClean + l.RefreshCorrected + l.RefreshUncorrectable)
			sn.stalls += l.StallSeconds
			sn.misses += l.DeadlineMisses
		}
	}
	return sn
}

// checkLive enforces the live workload's extra correctness gate.
func checkLive(s *stack) error {
	for i, g := range s.shards {
		if n := g.LiveStats().UncorrectableReads; n > 0 {
			return fmt.Errorf("node %d served %d uncorrectable reads", i, n)
		}
	}
	return nil
}

// endToEndRun is the untraced run: alternating open-loop and
// closed-loop windows, then setup samples from fresh processes.
func endToEndRun(w workload, seed uint64, d time.Duration) (result, error) {
	st, setup, err := setUp(w, seed, nil)
	if err != nil {
		return result{}, err
	}
	r := &runner{w: w, seed: seed, st: st.st}
	if err := prepare(r); err != nil {
		st.close()
		return result{}, err
	}
	// The measured time alternates open-loop and closed-loop windows. Each
	// latency metric is the median over windows, so a burst of CPU stolen
	// from the machine spoils a window, not a run. Throughput pools the
	// closed-loop windows: over eight seeds per workload its quartile
	// spread was a fifth to a third lower than that of the median over
	// windows.
	ctx := context.Background()
	n := max(1, int(d/window))
	openD := time.Duration(openShare * float64(d) / float64(n))
	closedD := d/time.Duration(n) - openD
	var opens []openResult
	var thr, lags []float64
	var closedOK uint64
	var closedT time.Duration
	before := take(st, r)
	for i := 0; i < n; i++ {
		o, err := r.openLoop(ctx, fmt.Sprintf("open/%d", i), openD)
		if err != nil {
			st.close()
			return result{}, err
		}
		ok, elapsed := r.closedLoop(ctx, fmt.Sprintf("closed/%d", i), closedD)
		opens = append(opens, o)
		lags = append(lags, o.lag...)
		thr = append(thr, float64(ok)/elapsed.Seconds())
		closedOK += ok
		closedT += elapsed
	}
	after := take(st, r)
	liveErr := error(nil)
	if w.live {
		liveErr = checkLive(st)
	}
	devBytes, userBytes := st.deviceBytes(), st.userBytes()
	st.close()
	if liveErr != nil {
		return result{}, liveErr
	}

	setups := []float64{setup}
	for i := 1; i < setupSamples; i++ {
		s, err := setupChild(w, seed)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, s)
	}

	attempted := after.attempted - before.attempted
	failed := after.failed - before.failed
	writes := after.writes - before.writes
	dev := after.dev.sub(before.dev)
	readP50 := windowPercentile(opens, false, 0.50)
	readP99 := windowPercentile(opens, false, 0.99)
	writeP50 := windowPercentile(opens, true, 0.50)
	writeP99 := windowPercentile(opens, true, 0.99)
	lag, _ := percentile(lags, 0.99)
	errRatio := ratio(float64(failed), float64(attempted))

	fmt.Printf("workload %s seed %d: %d ops attempted, %d failed, %d data mismatches\n",
		w.name, seed, attempted, failed, r.mismatches.Load())
	fmt.Printf("open loop: %.0f ops/s offered in %d windows of %v; %d reads timed (tail p%.2f), %d writes timed (tail p%.2f); generator lag p99 %.1f us\n",
		w.offered, n, openD, readP99.samples, 100*readP99.used,
		writeP99.samples, 100*writeP99.used, lag)
	fmt.Printf("closed loop: %d clients, window throughputs (ops/s) %.1f\n", clients, thr)
	fmt.Printf("setup samples (s): %v\n", setups)

	m := withUnits(endToEndSpecs, map[string]float64{
		"setup_s":            median(setups),
		"throughput_ops":     float64(closedOK) / closedT.Seconds(),
		"read_p50_us":        readP50.value,
		"write_p50_us":       writeP50.value,
		"success_ratio":      1 - errRatio,
		"programs_per_write": ratio(float64(dev.programs), float64(writes)),
		"space_amp":          float64(devBytes) / float64(userBytes),
		"rss_peak_mb":        rssPeakMB(),
	})
	printMetrics(m, "")
	printMetrics(withUnits(ungatedSpecs, map[string]float64{
		"read_p99_us":  readP99.value,
		"write_p99_us": writeP99.value,
		"error_ratio":  errRatio,
	}), " (not in the result)")
	return result{
		Correct:   r.mismatches.Load() == 0,
		Attempted: attempted, Failed: failed, Metrics: m,
	}, nil
}

// setupChild measures setup_s in a fresh process of this binary.
func setupChild(w workload, seed uint64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10), "-setup-only")
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("setup child: %w", err)
	}
	f := strings.Fields(string(outb))
	if len(f) != 2 || f[0] != "setup_s" {
		return 0, fmt.Errorf("setup child printed %q", outb)
	}
	return strconv.ParseFloat(f[1], 64)
}

// rssPeakMB reads the process's peak resident set (VmHWM) in MiB.
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// printMetrics prints one metric per line, by name, with its unit and
// the note.
func printMetrics(m map[string]metric, note string) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s%s\n", n, m[n].Value, m[n].Unit, note)
	}
}

// gcCPU returns the cumulative GC and total CPU seconds of the process.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// tracedRun is the traced run: a traced open loop, an untraced and a
// traced closed loop (their throughput ratio is the tracing overhead),
// then the replay ladder. Spans are written to out.
func tracedRun(w workload, seed uint64, d time.Duration, out string) (result, error) {
	t0 := time.Now()
	if w.arch == device.ThreeLC {
		levels.ThreeLCOpt()
	} else {
		levels.FourLCOpt()
	}
	optimize := time.Since(t0).Seconds()

	rec := newRecorder()
	st, _, err := setUp(w, seed, rec)
	if err != nil {
		return result{}, err
	}
	r := &runner{w: w, seed: seed, st: st.st, rec: rec}
	if err := prepare(r); err != nil {
		st.close()
		return result{}, err
	}
	ctx := context.Background()
	phase := d / 3

	rec.on.Store(true)
	b1 := take(st, r)
	open, err := r.openLoop(ctx, "open", phase)
	if err != nil {
		st.close()
		return result{}, err
	}
	a1 := take(st, r)
	rec.on.Store(false)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := gcCPU()
	untracedOK, untracedT := r.closedLoop(ctx, "closed", phase)
	gc1, cpu1 := gcCPU()
	runtime.ReadMemStats(&ms1)
	untracedOps := float64(untracedOK)

	rec.on.Store(true)
	b2 := take(st, r)
	tracedOK, tracedT := r.closedLoop(ctx, "closed-traced", d-2*phase)
	a2 := take(st, r)
	rec.on.Store(false)

	liveErr := error(nil)
	if w.live {
		liveErr = checkLive(st)
	}
	st.close()
	if liveErr != nil {
		return result{}, liveErr
	}

	spans, calls := rec.recorded()
	lad, err := runLadder(w, seed, calls)
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return result{}, err
	}
	path := spansPath(out, w.name)
	if err := writeSpans(path, spans); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	abs, _ := filepath.Abs(path)
	fmt.Printf("spans: %d written to %s\n", len(spans), abs)

	in := layerInput{
		w: w, spans: spans,
		delta: []delta{{b1, a1}, {b2, a2}},
		lag:   open.lag, optimize: optimize, ladder: lad,
		untracedThroughput: untracedOps / untracedT.Seconds(),
		tracedThroughput:   float64(tracedOK) / tracedT.Seconds(),
		procOps:            untracedOps,
		mallocs:            float64(ms1.Mallocs - ms0.Mallocs),
		allocBytes:         float64(ms1.TotalAlloc - ms0.TotalAlloc),
		gcFrac:             ratio(gc1-gc0, cpu1-cpu0),
	}
	m := withUnits(layerSpecs, layerMetrics(in))
	printMetrics(m, "")
	return result{
		Correct:   r.mismatches.Load() == 0,
		Attempted: a2.attempted - b1.attempted,
		Failed:    a2.failed - b1.failed,
		Metrics:   m,
	}, nil
}
