package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// keyState is the generator's record of one key's acknowledged data.
// Its lock serializes the key's ops, so a read is checked against
// exactly one acknowledged value.
type keyState struct {
	mu   sync.Mutex
	want []byte // nil until a write is acknowledged, and after a failed write
}

// runner issues ops against a store and checks every read.
type runner struct {
	w    workload
	seed uint64
	st   store
	rec  *recorder // nil on untraced runs
	keys [workingSet]keyState

	attempted, failed, writes, reads atomic.Uint64
	mismatches                       atomic.Uint64
	mismatchOnce                     sync.Once
}

// do runs one op and reports whether it succeeded with correct data.
// A failed op counts in error_ratio; a read returning anything but the
// last acknowledged bytes is a mismatch, which fails the run.
func (r *runner) do(ctx context.Context, client int, o op) bool {
	k := &r.keys[o.key]
	k.mu.Lock()
	defer k.mu.Unlock()
	r.attempted.Add(1)
	id, t0 := r.rec.startOp()
	if id != 0 {
		ctx = obs.ContextWithTrace(ctx, id)
	}
	if o.write {
		r.writes.Add(1)
		data := blockData(o.val)
		err := r.st.write(ctx, client, o.key, data)
		if id != 0 {
			r.rec.endOp(id, true, t0, err)
		}
		if err != nil {
			r.failed.Add(1)
			k.want = nil
			return false
		}
		k.want = data
		return true
	}
	r.reads.Add(1)
	got, err := r.st.read(ctx, client, o.key)
	if id != 0 {
		r.rec.endOp(id, false, t0, err)
	}
	if err != nil {
		r.failed.Add(1)
		return false
	}
	if k.want != nil && !bytes.Equal(got, k.want) {
		r.mismatches.Add(1)
		r.mismatchOnce.Do(func() {
			fmt.Fprintf(os.Stderr, "perfbench: DATA MISMATCH: workload %s seed %d key %d: got %x want %x\n",
				r.w.name, r.seed, o.key, got, k.want)
		})
		return false
	}
	return true
}

// prefill writes every block of the working set, then reads each back
// and checks it, before any timing starts.
func (r *runner) prefill(ctx context.Context) error {
	var next atomic.Int64
	var failed atomic.Uint64
	pass := func(write bool) {
		var wg sync.WaitGroup
		next.Store(0)
		for c := 0; c < 4*clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for {
					key := next.Add(1) - 1
					if key >= workingSet {
						return
					}
					o := op{write: write, key: key, val: derive(r.seed, r.w.name, "prefill", key)}
					if !r.do(ctx, c%clients, o) {
						failed.Add(1)
					}
				}
			}(c)
		}
		wg.Wait()
	}
	pass(true)
	pass(false)
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("prefill: %d of %d ops failed or mismatched", n, 2*workingSet)
	}
	return nil
}

// closedLoop runs the given number of clients, each sending its next op
// when the previous one completes, for d. It returns the successful
// ops and the elapsed time.
func (r *runner) closedLoop(ctx context.Context, stream string, d time.Duration) (ok uint64, elapsed time.Duration) {
	var done atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g := newOpGen(r.w, r.seed, fmt.Sprintf("%s/client%d", stream, c))
			for time.Now().Before(stop) {
				if r.do(ctx, c, g.next()) {
					done.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	return done.Load(), time.Since(start)
}

// openResult holds per-op latencies of an open-loop phase, measured
// from each op's scheduled send time.
type openResult struct {
	readLat, writeLat []float64 // µs, successful ops only
	lag               []float64 // µs the generator sent each op late
}

// maxInFlight bounds the open-loop ops outstanding at once; past it the
// generator falls behind, which shows in gen.lag_p99_us.
const maxInFlight = 256

// openLoop sends ops at the workload's fixed offered rate for d,
// regardless of completions, spreading them over the clients.
func (r *runner) openLoop(ctx context.Context, stream string, d time.Duration) (openResult, error) {
	interval := time.Duration(float64(time.Second) / r.w.offered)
	n := int(d / interval)
	lat := make([]float64, n)
	isWrite := make([]bool, n)
	okOp := make([]bool, n)
	lag := make([]float64, n)
	g := newOpGen(r.w, r.seed, stream)
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup

	// The schedule comes from a ticker process (see ticker.go); the
	// margin lets it start before the first op is due.
	start := time.Now().Add(tickerStartup)
	t, err := startTicker(start, interval, n)
	if err != nil {
		return openResult{}, err
	}
	buf := make([]byte, 256)
	for i := 0; i < n; {
		k, err := t.Read(buf)
		if err != nil {
			t.wait()
			return openResult{}, fmt.Errorf("ticker stopped after %d of %d ticks: %w", i, n, err)
		}
		for ; k > 0 && i < n; k, i = k-1, i+1 {
			due := start.Add(time.Duration(i) * interval)
			sem <- struct{}{}
			lag[i] = float64(time.Since(due)) / 1e3
			o := g.next()
			isWrite[i] = o.write
			wg.Add(1)
			go func(i int, o op, due time.Time) {
				defer wg.Done()
				okOp[i] = r.do(ctx, i%clients, o)
				lat[i] = float64(time.Since(due)) / 1e3
				<-sem
			}(i, o, due)
		}
	}
	wg.Wait()
	if err := t.wait(); err != nil {
		return openResult{}, err
	}

	var res openResult
	res.lag = lag
	for i := range lat {
		switch {
		case !okOp[i]:
		case isWrite[i]:
			res.writeLat = append(res.writeLat, lat[i])
		default:
			res.readLat = append(res.readLat, lat[i])
		}
	}
	return res, nil
}
