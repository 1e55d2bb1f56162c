// Top-level benchmark harness: one testing.B benchmark per table and
// figure of the paper's evaluation, each regenerating the exhibit through
// internal/experiments (the same code path as cmd/pcmrepro), plus
// ablation benchmarks for the design choices called out in DESIGN.md.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Reproduce a single exhibit with full output:
//
//	go run ./cmd/pcmrepro -id F8
package repro

import (
	"context"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/bch"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/drift"
	"repro/internal/experiments"
	"repro/internal/levels"
	"repro/internal/logic"
	"repro/internal/memsim"
	"repro/internal/pcmarray"
	"repro/internal/pcmserve"
	"repro/internal/rng"
	"repro/internal/trace"
)

// benchOpts keeps per-iteration cost moderate; use cmd/pcmrepro with
// -samples 1000000000 for the paper's full Monte Carlo depth.
var benchOpts = experiments.Options{
	MCSamples: 1_000_000,
	Seed:      20130817,
	MemsimOps: 100_000,
}

// benchExperiment runs one exhibit per iteration and keeps its output.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	spec, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var sink int
	for i := 0; i < b.N; i++ {
		res := spec.Run(benchOpts)
		sink += len(res.Rows)
	}
	_ = sink
}

func BenchmarkTable1(b *testing.B)  { benchExperiment(b, "T1") }
func BenchmarkFigure1(b *testing.B) { benchExperiment(b, "F1") }
func BenchmarkFigure2(b *testing.B) { benchExperiment(b, "F2") }

// BenchmarkFigure3 regenerates the per-state 4LCn drift error rates
// (Monte Carlo over the full time grid).
func BenchmarkFigure3(b *testing.B) { benchExperiment(b, "F3") }

func BenchmarkFigure4(b *testing.B)       { benchExperiment(b, "F4") }
func BenchmarkRefreshBudget(b *testing.B) { benchExperiment(b, "S4.1") }

// BenchmarkFigure5 regenerates the BLER-vs-CER surface for No-ECC through
// BCH-10.
func BenchmarkFigure5(b *testing.B) { benchExperiment(b, "F5") }

// BenchmarkFigure6 and 7 audit the optimal mappings' CER; the mappings
// themselves are frozen optimizer output, so no optimization is timed.
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "F6") }
func BenchmarkFigure7(b *testing.B) { benchExperiment(b, "F7") }

// BenchmarkFigure8 regenerates the headline five-design drift comparison.
func BenchmarkFigure8(b *testing.B) { benchExperiment(b, "F8") }

func BenchmarkFigure9(b *testing.B)  { benchExperiment(b, "F9") }
func BenchmarkTable2(b *testing.B)   { benchExperiment(b, "T2") }
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "F10-F12") }
func BenchmarkFigure13(b *testing.B) { benchExperiment(b, "F13") }
func BenchmarkFigure14(b *testing.B) { benchExperiment(b, "F14") }

// BenchmarkTable3 includes the permutation-coding Monte Carlo and the
// retention-limit searches.
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "T3") }

func BenchmarkTable4(b *testing.B)   { benchExperiment(b, "T4") }
func BenchmarkFigure15(b *testing.B) { benchExperiment(b, "F15") }
func BenchmarkTable5(b *testing.B)   { benchExperiment(b, "T5") }

// BenchmarkFigure16 runs the full 6-workload x 4-design system sweep.
func BenchmarkFigure16(b *testing.B) { benchExperiment(b, "F16") }

// BenchmarkAblationExhibits times the registered ablation experiments
// (A1 drift-mitigation ladder, A2 multi-level cells, A5 write cost).
// A3 (lifetime) and A4 (refresh sweep) are heavier; run them via
// cmd/pcmrepro.
func BenchmarkAblationExhibitA1(b *testing.B) { benchExperiment(b, "A1") }
func BenchmarkAblationExhibitA2(b *testing.B) { benchExperiment(b, "A2") }
func BenchmarkAblationExhibitA5(b *testing.B) { benchExperiment(b, "A5") }

// ---- Ablation benchmarks (DESIGN.md Section 6) ----

// BenchmarkAblationMappingOptimal quantifies the optimal mapping's CER
// advantage at the 17-minute operating point.
func BenchmarkAblationMappingOptimal(b *testing.B) {
	naive, opt := levels.FourLCNaive(), levels.FourLCOpt()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += naive.QuadCER(1020) / opt.QuadCER(1020)
	}
	_ = sink
}

// BenchmarkAblationSmartEncoding isolates the smart-encoding skew.
func BenchmarkAblationSmartEncoding(b *testing.B) {
	naive, smart := levels.FourLCNaive(), levels.FourLCSmart()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += naive.QuadCER(1020) / smart.QuadCER(1020)
	}
	_ = sink
}

// BenchmarkAblationRateSwitch measures the cost of the conservative 3LC
// drift-rate switch at a ten-year horizon.
func BenchmarkAblationRateSwitch(b *testing.B) {
	with := levels.ThreeLCNaive()
	without := with
	without.RateSwitchAt = 0
	const tenYears = 10 * 365.25 * 86400
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += with.QuadCER(tenYears) - without.QuadCER(tenYears)
	}
	_ = sink
}

// BenchmarkAblationORChain compares the two Figure 13 prefix networks at
// the paper's 177-pair width.
func BenchmarkAblationORChain(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += logic.ORChainFO4(177, logic.Ripple) / logic.ORChainFO4(177, logic.Sklansky)
	}
	_ = sink
}

// BenchmarkAblationBCHStrength sweeps decoder cost across code strengths
// on real codewords (not just the FO4 model): BCH-1 vs BCH-10 decode.
func BenchmarkAblationBCHStrength(b *testing.B) {
	r := rng.New(1)
	mk := func(t, msgBits int) (c *bch.Code, msg, parity bitvec.Vector) {
		c = bch.Must(10, t, msgBits)
		msg = bitvec.New(msgBits)
		for i := 0; i < msgBits; i++ {
			msg.Set(i, uint(r.Uint64())&1)
		}
		parity = c.Encode(msg)
		msg.Flip(17)
		return c, msg, parity
	}
	c1, m1, p1 := mk(1, 708)
	c10, m10, p10 := mk(10, 512)
	b.Run("BCH-1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := m1.Clone()
			p := p1.Clone()
			c1.Decode(m, p)
		}
	})
	b.Run("BCH-10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := m10.Clone()
			p := p10.Clone()
			c10.Decode(m, p)
		}
	})
}

// BenchmarkArchPipelines measures the end-to-end block write+read cost of
// each architecture's full Figure 9 pipeline.
func BenchmarkArchPipelines(b *testing.B) {
	noWear := pcmarray.DefaultOptions(1)
	noWear.EnduranceMean = 0
	data := make([]byte, core.BlockBytes)
	for i := range data {
		data[i] = byte(i)
	}
	archs := []core.Arch{
		core.NewThreeLC(16, core.ThreeLCConfig{Array: noWear}),
		core.NewFourLC(16, core.FourLCConfig{Array: noWear}),
		core.NewPermutation(16, noWear),
	}
	for _, a := range archs {
		a := a
		b.Run(a.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				blk := i & 15
				if err := a.Write(blk, data); err != nil {
					b.Fatal(err)
				}
				if _, err := a.Read(blk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMonteCarloThroughput reports raw drift-sampling speed, the
// quantity that bounds full 1e9-sample reproduction runs.
func BenchmarkMonteCarloThroughput(b *testing.B) {
	specs := levels.FourLCNaive().Specs()
	probs := []float64{0.25, 0.25, 0.25, 0.25}
	times := []float64{2, 32, 1020, 32400, 1.0368e6, 3.15e7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		drift.MCCERCurve(specs, probs, times, 1_000_000, uint64(i+1), 0)
	}
}

// BenchmarkMemsimThroughput reports simulator speed per design point.
func BenchmarkMemsimThroughput(b *testing.B) {
	for _, d := range memsim.Designs() {
		d := d
		b.Run(d.String(), func(b *testing.B) {
			cfg := memsim.ConfigFor(d)
			for i := 0; i < b.N; i++ {
				memsim.Run(cfg, trace.New(trace.Mcf, 100_000, uint64(i+1)))
			}
		})
	}
}

// BenchmarkPCMServe measures the networked serving layer end to end:
// a loopback pcmserve server over a 4-shard 3LC device, driven by
// concurrent pipelined clients. ns/op is the per-request wire+device
// latency under load; with -benchmem, MB/s follows from the 64-byte
// op payload.
func BenchmarkPCMServe(b *testing.B) {
	shards, err := pcmserve.NewShards(pcmserve.ShardsConfig{
		Shards:     4,
		QueueDepth: 64,
		Device: device.Config{
			Kind:           device.ThreeLC,
			Blocks:         256,
			Seed:           benchOpts.Seed,
			DisableWearout: true,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer shards.Close()
	srv := pcmserve.NewServer(shards, pcmserve.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	addr := ln.Addr().String()
	size := shards.Size()

	for _, mode := range []string{"write", "read", "mixed"} {
		mode := mode
		b.Run(mode, func(b *testing.B) { benchServedOps(b, addr, size, mode) })
	}
}

// benchServedOps drives one benchmark mode through pipelined clients,
// recording per-op latency so the run reports a served-op p99 next to
// ns/op — the regression gate cmd/benchdiff compares across runs.
func benchServedOps(b *testing.B, addr string, size int64, mode string) {
	var mu sync.Mutex
	var all []time.Duration
	b.SetBytes(core.BlockBytes)
	b.RunParallel(func(pb *testing.PB) {
		c, err := pcmserve.Dial(addr)
		if err != nil {
			b.Error(err)
			return
		}
		defer c.Close()
		buf := make([]byte, core.BlockBytes)
		lat := make([]time.Duration, 0, 4096)
		var i int64
		for pb.Next() {
			off := (i * 8 * core.BlockBytes) % (size - core.BlockBytes)
			t0 := time.Now()
			var err error
			switch {
			case mode == "write" || (mode == "mixed" && i%3 == 0):
				_, err = c.WriteAt(buf, off)
			default:
				_, err = c.ReadAt(buf, off)
			}
			if err != nil {
				b.Error(err)
				return
			}
			lat = append(lat, time.Since(t0))
			i++
		}
		mu.Lock()
		all = append(all, lat...)
		mu.Unlock()
	})
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		idx := len(all) * 99 / 100
		if idx >= len(all) {
			idx = len(all) - 1
		}
		b.ReportMetric(float64(all[idx].Nanoseconds())/1e3, "p99-us")
	}
}

// BenchmarkPCMServeLive measures the drift-faithful serving mode: live
// 4LCo shards at the paper's 1020 s refresh interval, time-compressed
// so the budgeted refresh scheduler cycles continuously during the
// benchmark. The delta against BenchmarkPCMServe is the cost of drift
// bookkeeping plus refresh interference on the foreground path.
func BenchmarkPCMServeLive(b *testing.B) {
	shards, err := pcmserve.NewShards(pcmserve.ShardsConfig{
		Shards:     4,
		QueueDepth: 64,
		Device:     device.Config{Blocks: 256, Seed: benchOpts.Seed},
		Live: &pcmserve.LiveConfig{
			Levels:                 4,
			RefreshIntervalSeconds: 1020,
			TimeScale:              21600, // quarter sim day per wall second
			WriteBudgetBytesPerSec: 40e6,  // the paper's 40 MB/s
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer shards.Close()
	srv := pcmserve.NewServer(shards, pcmserve.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	addr := ln.Addr().String()
	size := shards.Size()

	for _, mode := range []string{"write", "read", "mixed"} {
		mode := mode
		b.Run(mode, func(b *testing.B) { benchServedOps(b, addr, size, mode) })
	}
	if st := shards.LiveStats(); st.UncorrectableReads > 0 {
		b.Fatalf("lost data during benchmark: %d uncorrectable reads", st.UncorrectableReads)
	}
}
