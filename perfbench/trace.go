package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. An op span is one top-level call into pcmserve.Client or
// pcmcluster.Cluster; its ID is its trace id. An RPC span is one replica
// call through the DialNode probe, parented to the op whose trace id it
// carries (or to none, for background work). A device span is one call
// into a shard device through the WrapDevice probe and has no parent.
const (
	spanOpRead    = "op.read"
	spanOpWrite   = "op.write"
	spanRPCRead   = "rpc.read"
	spanRPCWrite  = "rpc.write"
	spanRPCHash   = "rpc.hash_range"
	spanRPCStride = "rpc.read_stride"
	spanDevRead   = "device.read"
	spanDevWrite  = "device.write"
)

// span is one timed call. Start and End are nanoseconds since the
// recorder's base; Node and Shard are -1 where they do not apply.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Node   int    `json:"node"`
	Shard  int    `json:"shard"`
	Off    int64  `json:"off,omitempty"`
	Len    int    `json:"len,omitempty"`
	Err    bool   `json:"err,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// devCall is one recorded device call, replayed by the ladder.
type devCall struct {
	write bool
	off   int64
	data  []byte // written bytes, or a buffer of the read's length
}

// maxReplayCalls bounds the device-call stream kept for the replay
// ladder (the 4LCo rungs cost about 1 ms per block op).
const maxReplayCalls = 400

// maxDeviceSpans bounds the device spans kept: background anti-entropy
// makes the live cluster issue about ten device calls per op. Device
// metrics come from the probes' counters, not from these spans.
const maxDeviceSpans = 100_000

// recorder keeps spans in memory while on; they are written out when
// the run ends.
type recorder struct {
	base   time.Time
	on     atomic.Bool
	nextID atomic.Uint64

	mu       sync.Mutex
	spans    []span
	devSpans int
	calls    []devCall
}

func newRecorder() *recorder {
	// Span IDs and op trace ids share one counter, so every op's trace
	// id is also its span ID.
	return &recorder{base: time.Now()}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// startOp opens an op span when the recorder is on: it returns the
// trace id to attach with obs.ContextWithTrace (0 when off) and the
// start time.
func (r *recorder) startOp() (id uint64, t0 int64) {
	if r == nil || !r.on.Load() {
		return 0, 0
	}
	return r.nextID.Add(1), r.now()
}

func (r *recorder) endOp(id uint64, write bool, t0 int64, err error) {
	name := spanOpRead
	if write {
		name = spanOpWrite
	}
	r.add(span{ID: id, Trace: id, Name: name, Start: t0, End: r.now(), Node: -1, Shard: -1, Err: err != nil})
}

func (r *recorder) rpc(name string, trace uint64, node int, t0 int64, err error) {
	r.add(span{
		ID: r.nextID.Add(1), Trace: trace, Name: name,
		Start: t0, End: r.now(), Node: node, Shard: -1, Err: err != nil,
	})
}

func (r *recorder) deviceCall(node, shard int, write bool, off int64, p []byte, t0, t1 int64, err error) {
	name := spanDevRead
	if write {
		name = spanDevWrite
	}
	s := span{
		ID: r.nextID.Add(1), Name: name, Start: t0, End: t1,
		Node: node, Shard: shard, Off: off, Len: len(p), Err: err != nil,
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.devSpans < maxDeviceSpans {
		r.devSpans++
		r.spans = append(r.spans, s)
	}
	// The ladder replays one shard's stream: node 0, shard 0.
	if len(r.calls) < maxReplayCalls && err == nil && node == 0 && shard == 0 {
		r.calls = append(r.calls, devCall{write: write, off: off, data: append([]byte(nil), p...)})
	}
}

// recorded returns the spans and the replay stream; call it once the
// stack is closed and nothing records any more.
func (r *recorder) recorded() ([]span, []devCall) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans, r.calls
}

// writeSpans writes every span as one JSON object per line, parenting
// each RPC span to the op span whose trace id it carries.
func writeSpans(path string, spans []span) error {
	ops := opIDs(spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if s.Parent == 0 && s.ID != s.Trace && ops[s.Trace] {
			s.Parent = s.Trace
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func isOp(s span) bool  { return s.Name == spanOpRead || s.Name == spanOpWrite }
func isRPC(s span) bool { return strings.HasPrefix(s.Name, "rpc.") }

// opIDs is the set of trace ids that belong to recorded op spans.
func opIDs(spans []span) map[uint64]bool {
	ids := make(map[uint64]bool)
	for _, s := range spans {
		if isOp(s) {
			ids[s.Trace] = true
		}
	}
	return ids
}

// selfTime is a span's duration minus the part of it that the union of
// its children's spans covers.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered int64
	var curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return parent.dur() - covered
}

// quorumGap is the time from an op's first successful replica reply to
// the reply that completes its quorum of q (ok=false when fewer than q
// replies succeeded).
func quorumGap(children []span, q int) (gap int64, ok bool) {
	var ends []int64
	for _, c := range children {
		if !c.Err {
			ends = append(ends, c.End)
		}
	}
	if q < 1 || len(ends) < q {
		return 0, false
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	return ends[q-1] - ends[0], true
}

func spansPath(dir, workload string) string {
	return fmt.Sprintf("%s/spans-%s.jsonl", dir, workload)
}
