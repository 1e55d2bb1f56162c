package pcmserve

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
)

const simDay = 86400.0

// liveShards builds a live-mode Shards: shards × blocks drift-backed
// devices at the given sim interval and time scale.
func liveShards(t *testing.T, shards, blocks int, live LiveConfig) *Shards {
	t.Helper()
	g, err := NewShards(ShardsConfig{
		Shards: shards,
		Device: device.Config{Blocks: blocks, Seed: 99},
		Live:   &live,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// fillShards writes a distinct pattern to every block through the
// public WriteAt surface.
func fillShards(t *testing.T, g *Shards) {
	t.Helper()
	buf := make([]byte, core.BlockBytes)
	for off := int64(0); off < g.Size(); off += core.BlockBytes {
		for i := range buf {
			buf[i] = byte(off/core.BlockBytes*31) + byte(i)
		}
		if _, err := g.WriteAt(buf, off); err != nil {
			t.Fatalf("fill at %d: %v", off, err)
		}
	}
}

// readAllBlocks reads every block individually and returns how many
// failed with core.ErrUncorrectable (block-by-block so one bad block
// cannot mask another behind dispatch's first-error semantics).
func readAllBlocks(t *testing.T, g *Shards) int {
	t.Helper()
	buf := make([]byte, core.BlockBytes)
	bad := 0
	for off := int64(0); off < g.Size(); off += core.BlockBytes {
		_, err := g.ReadAt(buf, off)
		switch {
		case err == nil:
		case errors.Is(err, core.ErrUncorrectable):
			bad++
		default:
			t.Fatalf("read at %d: %v", off, err)
		}
	}
	return bad
}

// TestLiveDriftRefreshSoak is the acceptance soak: drift-backed 4LCo
// shards at the paper's 1020 s refresh interval, time-compressed so
// each wall second covers a quarter sim day, serving concurrent
// foreground reads and writes the whole time. Nothing may come back
// uncorrectable, refresh must actually cycle, and the debt/stall
// instruments must be visible in the metrics exposition. Run under
// -race this doubles as the scheduler/owner/budget concurrency soak.
func TestLiveDriftRefreshSoak(t *testing.T) {
	g := liveShards(t, 2, 64, LiveConfig{
		Levels:                 4,
		RefreshIntervalSeconds: 1020,
		TimeScale:              simDay / 4,
		WriteBudgetBytesPerSec: 1 << 20,
	})
	fillShards(t, g)

	// Foreground traffic: half the blocks are rewritten continuously,
	// the other half only ever refreshed — those depend on the
	// scheduler to survive the ~50 sim days this soak covers.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			buf := make([]byte, core.BlockBytes)
			n := g.Size() / core.BlockBytes
			for i := int64(worker); ; i += 4 {
				select {
				case <-stop:
					return
				default:
				}
				blk := i % (n / 2)
				off := blk * core.BlockBytes
				if worker%2 == 0 {
					if _, err := g.ReadAt(buf, off); err != nil && !errors.Is(err, core.ErrUncorrectable) {
						t.Errorf("worker %d read: %v", worker, err)
						return
					}
				} else if _, err := g.WriteAt(buf, off); err != nil {
					t.Errorf("worker %d write: %v", worker, err)
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
		}(w)
	}
	time.Sleep(2 * time.Second)
	close(stop)
	wg.Wait()

	if bad := readAllBlocks(t, g); bad != 0 {
		t.Fatalf("%d blocks uncorrectable under refresh at the paper interval", bad)
	}
	st := g.LiveStats()
	if !st.Enabled {
		t.Fatal("LiveStats not enabled on a live Shards")
	}
	if st.UncorrectableReads != 0 {
		t.Fatalf("%d uncorrectable foreground reads", st.UncorrectableReads)
	}
	if st.Passes == 0 {
		t.Fatalf("scheduler completed no passes: %+v", st)
	}
	if st.RefreshClean+st.RefreshCorrected == 0 {
		t.Fatalf("no refresh executed: %+v", st)
	}
	if st.RefreshUncorrectable != 0 {
		t.Fatalf("refresh found %d dead blocks at the paper interval", st.RefreshUncorrectable)
	}
	exp := g.Registry().Exposition()
	for _, metric := range []string{
		"pcmlive_refresh_debt", "pcmlive_refresh_debt_peak",
		"pcmlive_refresh_total", "pcmlive_deadline_miss_total",
		"pcmlive_foreground_stall_seconds",
	} {
		if !strings.Contains(exp, metric) {
			t.Errorf("metric %s missing from exposition", metric)
		}
	}
}

// TestLiveDriftWithoutRefreshLosesData is the control arm: refresh
// disabled, a 45-day drift jump, and reads start failing beyond ECC.
func TestLiveDriftWithoutRefreshLosesData(t *testing.T) {
	g := liveShards(t, 2, 64, LiveConfig{Levels: 4})
	fillShards(t, g)
	if err := g.Advance(45 * simDay); err != nil {
		t.Fatal(err)
	}
	bad := readAllBlocks(t, g)
	if bad == 0 {
		t.Fatal("45 drift-days without refresh lost no blocks")
	}
	st := g.LiveStats()
	if st.UncorrectableReads == 0 {
		t.Fatalf("uncorrectable reads not counted: %+v", st)
	}
	if st.DebtBlocks == 0 {
		t.Fatalf("45-day-old blocks show no refresh debt: %+v", st)
	}
}

// TestLiveSchedulerDebtAtTooLongInterval runs the scheduler at 10× the
// paper interval: it meets its own (too-lax) deadline, but the
// model-derived debt gauge exposes the misconfiguration.
func TestLiveSchedulerDebtAtTooLongInterval(t *testing.T) {
	g := liveShards(t, 1, 64, LiveConfig{
		Levels:                 4,
		RefreshIntervalSeconds: 10200,
		TimeScale:              simDay,
	})
	fillShards(t, g)
	time.Sleep(1200 * time.Millisecond)
	st := g.LiveStats()
	if st.DebtPeak == 0 {
		t.Fatalf("10×-interval run observed no refresh-debt peak: %+v", st)
	}
	if st.DebtBlocks == 0 {
		t.Fatalf("10×-interval run shows no instantaneous debt: %+v", st)
	}
}

// TestLiveThreeLCNeedsNoRefresh: the 3LCo organization is nonvolatile
// on any practical horizon — a year of drift with no refresh loses
// nothing and accrues no debt.
func TestLiveThreeLCNeedsNoRefresh(t *testing.T) {
	g := liveShards(t, 1, 32, LiveConfig{Levels: 3})
	fillShards(t, g)
	if err := g.Advance(365 * simDay); err != nil {
		t.Fatal(err)
	}
	if bad := readAllBlocks(t, g); bad != 0 {
		t.Fatalf("3LCo lost %d blocks after a drift-year", bad)
	}
	if st := g.LiveStats(); st.DebtBlocks != 0 {
		t.Fatalf("3LCo reports refresh debt: %+v", st)
	}
}

// TestLiveThreeLCStatsOverWire: the 3LCo model's safe age is unbounded
// (+Inf), which a JSON number cannot carry. STATS must still encode —
// the safe age as null — and decode back to +Inf, so the loadgen and
// the cluster's capacity probe work against 3LCo live nodes.
func TestLiveThreeLCStatsOverWire(t *testing.T) {
	g := liveShards(t, 1, 32, LiveConfig{Levels: 3})
	if safe := g.LiveStats().SafeAgeSeconds; !math.IsInf(safe, 1) {
		t.Fatalf("3LCo safe age = %v, want +Inf", safe)
	}
	raw, err := json.Marshal(g.LiveStats())
	if err != nil {
		t.Fatalf("marshal 3LCo LiveStats: %v", err)
	}
	if !strings.Contains(string(raw), `"safe_age_seconds":null`) {
		t.Fatalf("unbounded safe age not encoded as null: %s", raw)
	}

	addr := startServer(t, g, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("STATS on a 3LCo live node: %v", err)
	}
	want := g.LiveStats()
	want.SimSeconds = st.Live.SimSeconds
	if !st.Live.Enabled || st.Live.Levels != 3 || st.Live != want {
		t.Fatalf("STATS live = %+v, want %+v", st.Live, want)
	}

	// A finite safe age (4LCo) still travels as a number.
	st4 := liveShards(t, 1, 8, LiveConfig{}).LiveStats()
	if math.IsInf(st4.SafeAgeSeconds, 0) || st4.SafeAgeSeconds <= 0 {
		t.Fatalf("4LCo safe age = %v, want finite and positive", st4.SafeAgeSeconds)
	}
	var back LiveStats
	raw, err = json.Marshal(st4)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != st4 {
		t.Fatalf("4LCo LiveStats round trip: %+v, want %+v", back, st4)
	}
}

func TestLiveConfigValidation(t *testing.T) {
	base := ShardsConfig{
		Shards: 1,
		Device: device.Config{Blocks: 8},
	}
	cases := []struct {
		name string
		mut  func(*ShardsConfig)
	}{
		{"scrub interval", func(c *ShardsConfig) {
			c.Live = &LiveConfig{}
			c.ScrubInterval = time.Second
		}},
		{"verify scrub", func(c *ShardsConfig) {
			c.Live = &LiveConfig{}
			c.Integrity = &IntegrityConfig{}
			c.VerifyScrub = true
		}},
		{"bad levels", func(c *ShardsConfig) {
			c.Live = &LiveConfig{Levels: 2}
		}},
		{"negative interval", func(c *ShardsConfig) {
			c.Live = &LiveConfig{RefreshIntervalSeconds: -1}
		}},
		{"negative budget", func(c *ShardsConfig) {
			c.Live = &LiveConfig{WriteBudgetBytesPerSec: -1}
		}},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if g, err := NewShards(cfg); err == nil {
			g.Close()
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestLiveStatsZeroWhenDisabled(t *testing.T) {
	g, err := NewShards(ShardsConfig{
		Shards: 1,
		Device: device.Config{Blocks: 8, DisableWearout: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if st := g.LiveStats(); st.Enabled || st != (LiveStats{}) {
		t.Fatalf("non-live Shards reports live stats: %+v", st)
	}
}
