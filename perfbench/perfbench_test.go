package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"
)

func TestOpStreamIsPureFunctionOfWorkloadAndSeed(t *testing.T) {
	w := workloads[1]
	take := func(g *opGen) []op {
		ops := make([]op, 2000)
		for i := range ops {
			ops[i] = g.next()
		}
		return ops
	}
	a := take(newOpGen(w, 7, "open/0"))
	if b := take(newOpGen(w, 7, "open/0")); !reflect.DeepEqual(a, b) {
		t.Fatal("same workload, seed and stream gave different op streams")
	}
	if b := take(newOpGen(w, 8, "open/0")); reflect.DeepEqual(a, b) {
		t.Fatal("seeds 7 and 8 gave the same op stream")
	}
	if b := take(newOpGen(w, 7, "open/1")); reflect.DeepEqual(a, b) {
		t.Fatal("streams open/0 and open/1 gave the same ops")
	}
	if b := take(newOpGen(workloads[2], 7, "open/0")); reflect.DeepEqual(a, b) {
		t.Fatal("two workloads gave the same op stream")
	}
	writes := 0
	for _, o := range a {
		if o.key < 0 || o.key >= workingSet {
			t.Fatalf("key %d outside the working set", o.key)
		}
		if o.write {
			writes++
		}
	}
	if frac := float64(writes) / float64(len(a)); frac < 0.25 || frac > 0.35 {
		t.Fatalf("write fraction %.3f, want about 0.30 for a %d%% read mix", frac, w.readPct)
	}
	if !reflect.DeepEqual(blockData(42), blockData(42)) || reflect.DeepEqual(blockData(42), blockData(43)) {
		t.Fatal("blockData is not a function of its seed alone")
	}
}

func TestPercentileFallsBackToTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n        int
		p        float64
		v, used  float64
		describe string
	}{
		{1000, 0.99, 990, 0.99, "exactly ten samples beyond p99"},
		{2000, 0.99, 1980, 0.99, "p99 with room to spare"},
		{500, 0.99, 490, 0.98, "too few samples: the highest percentile with ten beyond"},
		{100, 0.50, 50, 0.50, "median"},
		{5, 0.99, 1, 0.2, "fewer than eleven samples: the minimum"},
	} {
		v, used := percentile(seq(tc.n), tc.p)
		if v != tc.v || used != tc.used {
			t.Errorf("%s: percentile(n=%d, p=%g) = %g at q=%g, want %g at q=%g",
				tc.describe, tc.n, tc.p, v, used, tc.v, tc.used)
		}
	}
	if v, used := percentile(nil, 0.99); v != 0 || used != 0 {
		t.Errorf("empty input gave %g at q=%g", v, used)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 samples = %g, want 2", m)
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 20, End: 50},
		{Start: 10, End: 30},   // overlaps the first: union [10, 50]
		{Start: 60, End: 70},   // disjoint
		{Start: 65, End: 68},   // inside the previous one
		{Start: 90, End: 120},  // clipped to the parent: [90, 100]
		{Start: 130, End: 140}, // outside the parent
	}
	if got := selfTime(parent, children); got != 100-40-10-10 {
		t.Fatalf("self time %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children %d, want 100", got)
	}
}

func TestQuorumGap(t *testing.T) {
	kids := []span{{End: 50}, {End: 20}, {End: 90, Err: true}, {End: 35}}
	if g, ok := quorumGap(kids, 2); !ok || g != 15 {
		t.Fatalf("W=2 gap %d (ok=%v), want 15", g, ok)
	}
	if g, ok := quorumGap(kids, 3); !ok || g != 30 {
		t.Fatalf("W=3 gap %d (ok=%v), want 30", g, ok)
	}
	if _, ok := quorumGap(kids, 4); ok {
		t.Fatal("a quorum of 4 met with 3 successful replies")
	}
}

func TestBlockSpanProgramsAndRMWReads(t *testing.T) {
	for _, tc := range []struct {
		off             int64
		n               int
		programs, reads int
	}{
		{0, 64, 1, 0},    // aligned block
		{128, 128, 2, 0}, // two aligned blocks
		{80, 80, 2, 2},   // mirrored slot 1: both ends partial
		{0, 80, 2, 1},    // mirrored slot 0
		{240, 80, 2, 1},  // mirrored slot 3: ends on a boundary
		{16, 33, 1, 1},   // fragment slot inside one block
		{33, 33, 2, 2},   // fragment slot straddling a boundary
		{0, 33, 1, 1},
		{0, 0, 0, 0},
	} {
		p, r := blockSpan(tc.off, tc.n)
		if p != tc.programs || r != tc.reads {
			t.Errorf("blockSpan(%d, %d) = %d programs, %d RMW reads; want %d, %d",
				tc.off, tc.n, p, r, tc.programs, tc.reads)
		}
	}
	// Over the 80 B slots of an rf:3 cluster, four consecutive slots
	// average 2 programs and 1.5 RMW reads per replica: 6.0 and 4.5 per
	// logical write.
	progs, reads := 0, 0
	for slot := int64(0); slot < 4; slot++ {
		p, r := blockSpan(slot*80, 80)
		progs, reads = progs+p, reads+r
	}
	if 3*float64(progs)/4 != 6 || 3*float64(reads)/4 != 4.5 {
		t.Fatalf("rf:3 amplification %g programs, %g RMW reads per write; want 6, 4.5",
			3*float64(progs)/4, 3*float64(reads)/4)
	}
}

func TestBlockOpsSplitsAtBlockBoundaries(t *testing.T) {
	data := make([]byte, 80)
	for i := range data {
		data[i] = byte(i)
	}
	ops := blockOps(devCall{write: true, off: 80, data: data})
	if len(ops) != 2 {
		t.Fatalf("%d block ops, want 2", len(ops))
	}
	if o := ops[0]; o.block != 1 || o.lo != 16 || o.hi != 64 || o.data[0] != 0 {
		t.Errorf("first op %+v", o)
	}
	if o := ops[1]; o.block != 2 || o.lo != 0 || o.hi != 32 || o.data[0] != 48 {
		t.Errorf("second op %+v", o)
	}
}

// fakeStore serves reads from a map, optionally corrupting them.
type fakeStore struct {
	data    map[int64][]byte
	corrupt bool
	fail    bool
}

func (f *fakeStore) read(_ context.Context, _ int, key int64) ([]byte, error) {
	b := append(make([]byte, 0, blockBytes), f.data[key]...)
	if f.corrupt {
		b[0] ^= 1
	}
	return b, nil
}

func (f *fakeStore) write(_ context.Context, _ int, key int64, data []byte) error {
	if f.fail {
		return errors.New("injected write failure")
	}
	f.data[key] = append([]byte(nil), data...)
	return nil
}

func TestRunnerChecksReadsAgainstAcknowledgedWrites(t *testing.T) {
	fs := &fakeStore{data: map[int64][]byte{}}
	r := &runner{w: workloads[0], seed: 1, st: fs}
	ctx := context.Background()
	if !r.do(ctx, 0, op{write: true, key: 3, val: 9}) || !r.do(ctx, 0, op{key: 3}) {
		t.Fatal("a clean write and read failed")
	}
	fs.fail = true
	if r.do(ctx, 0, op{write: true, key: 3, val: 10}) {
		t.Fatal("a failed write reported success")
	}
	fs.fail = false
	// After a failed write the key's content is unknown: not checked.
	fs.corrupt = true
	if !r.do(ctx, 0, op{key: 3}) {
		t.Fatal("a read after a failed write was checked")
	}
	fs.corrupt = false
	r.do(ctx, 0, op{write: true, key: 3, val: 11})
	fs.corrupt = true
	if r.do(ctx, 0, op{key: 3}) || r.mismatches.Load() != 1 {
		t.Fatalf("a corrupted read was accepted (mismatches %d)", r.mismatches.Load())
	}
	if got := r.failed.Load(); got != 1 {
		t.Fatalf("%d failed ops counted, want 1", got)
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestDefinitionsMatchBenchmarkJSONAndInteractions(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(names, declared) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}
	check := func(kind string, specs []metricSpec, got []struct{ Name, Unit, Better string }) {
		var want []struct{ Name, Unit, Better string }
		for _, s := range specs {
			want = append(want, struct{ Name, Unit, Better string }{s.name, s.unit, s.better})
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s metrics differ from BENCHMARK.json:\n code %v\n json %v", kind, want, got)
		}
	}
	check("end_to_end", endToEndSpecs, bf.EndToEnd)
	check("per_layer", layerSpecs, bf.PerLayer)

	raw, err = os.ReadFile("interactions.json")
	if err != nil {
		t.Fatal(err)
	}
	var inter struct {
		PerLayer []struct {
			Name  string
			Moves []struct{ Metric, Workload string }
			Flat  []string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &inter); err != nil {
		t.Fatal(err)
	}
	isWorkload := map[string]bool{}
	for _, n := range names {
		isWorkload[n] = true
	}
	isEndToEnd := map[string]bool{}
	for _, s := range append(endToEndSpecs, ungatedSpecs...) {
		isEndToEnd[s.name] = true
	}
	recorded := map[string]bool{}
	for _, row := range inter.PerLayer {
		recorded[row.Name] = true
		for _, m := range row.Moves {
			if !isEndToEnd[m.Metric] || !isWorkload[m.Workload] {
				t.Errorf("%s moves unknown %s on %s", row.Name, m.Metric, m.Workload)
			}
		}
		for _, f := range row.Flat {
			if !isWorkload[f] {
				t.Errorf("%s is flat on unknown workload %s", row.Name, f)
			}
		}
	}
	for _, s := range layerSpecs {
		if !recorded[s.name] {
			t.Errorf("interactions.json has no row for %s", s.name)
		}
	}
	if len(recorded) != len(layerSpecs) {
		t.Errorf("interactions.json has %d rows, want %d", len(recorded), len(layerSpecs))
	}
}
