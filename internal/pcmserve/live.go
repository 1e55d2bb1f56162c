package pcmserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pcmlive"
)

// LiveConfig enables drift-backed shards: every shard device is a
// pcmlive.Device aging under simulated time, and a pcmlive.Scheduler
// replaces the fixed-cadence scrubber — refresh is bought from a write
// budget shared with foreground traffic and routed through the shard
// queues, so clients observe refresh-induced bank-busy latency.
type LiveConfig struct {
	// Levels selects the cell organization: 4 (4LCo + BCH-10, the
	// paper's volatile high-density point, needs refresh) or 3 (3LCo +
	// BCH-1, nonvolatile). Default 4.
	Levels int
	// RefreshIntervalSeconds is the refresh interval in SIM seconds
	// (the paper's 1020 s for 4LCo); 0 disables refresh entirely — the
	// control arm that demonstrates drift-induced data loss.
	RefreshIntervalSeconds float64
	// WriteBudgetBytesPerSec meters the combined write bandwidth
	// (foreground + refresh) in WALL bytes/second — the paper's
	// 40 MB/s. 0 leaves writes unmetered.
	WriteBudgetBytesPerSec float64
	// BurstBytes is the budget bucket capacity (0 → 50 ms of refill).
	BurstBytes float64
	// ReserveBytes is the headroom on-schedule refresh leaves for
	// foreground writes (0 → half the burst).
	ReserveBytes float64
	// TimeScale is simulated seconds per wall second (default 1).
	// Loadgen and CI smoke runs raise it so drift horizons of hours
	// play out in seconds.
	TimeScale float64
	// GraceFactor sets the refresh deadline-miss threshold (see
	// pcmlive.SchedulerConfig; 0 → default 0.25).
	GraceFactor float64
}

// liveState is the Shards-level live-mode machinery: the shared error
// model and budget, the per-shard raw devices, the scheduler, and the
// registered instruments.
type liveState struct {
	cfg    LiveConfig
	model  *pcmlive.ErrorModel
	budget *pcmlive.Budget
	devs   []*pcmlive.Device
	sched  *pcmlive.Scheduler // nil when refresh is disabled

	refreshClean         *obs.Counter
	refreshCorrected     *obs.Counter
	refreshUncorrectable *obs.Counter
	refreshUnwritten     *obs.Counter
	deadlineMiss         *obs.Counter
}

// newLiveState validates the live configuration and builds the shared
// model, budget, and instruments (devices are added per shard by
// NewShards).
func newLiveState(cfg LiveConfig, shards int, reg *obs.Registry) (*liveState, error) {
	levels := cfg.Levels
	if levels == 0 {
		levels = 4
	}
	lcfg, err := pcmlive.ConfigForLevels(levels)
	if err != nil {
		return nil, err
	}
	model, err := pcmlive.NewErrorModel(lcfg)
	if err != nil {
		return nil, err
	}
	if cfg.RefreshIntervalSeconds < 0 {
		return nil, fmt.Errorf("pcmserve: negative refresh interval %g", cfg.RefreshIntervalSeconds)
	}
	if cfg.WriteBudgetBytesPerSec < 0 {
		return nil, fmt.Errorf("pcmserve: negative write budget %g", cfg.WriteBudgetBytesPerSec)
	}
	ls := &liveState{
		cfg:   cfg,
		model: model,
		devs:  make([]*pcmlive.Device, 0, shards),
	}
	if cfg.WriteBudgetBytesPerSec > 0 {
		ls.budget = pcmlive.NewBudget(cfg.WriteBudgetBytesPerSec, cfg.BurstBytes)
	}
	const refreshName = "pcmlive_refresh_total"
	const refreshHelp = "Scheduled block refreshes by outcome: clean (rewritten before any cell erred), corrected (drift cleared within ECC), uncorrectable (beyond ECC, content replaced), unwritten (nothing stored)."
	ls.refreshClean = reg.Counter(refreshName, refreshHelp, obs.L("outcome", "clean")...)
	ls.refreshCorrected = reg.Counter(refreshName, refreshHelp, obs.L("outcome", "corrected")...)
	ls.refreshUncorrectable = reg.Counter(refreshName, refreshHelp, obs.L("outcome", "uncorrectable")...)
	ls.refreshUnwritten = reg.Counter(refreshName, refreshHelp, obs.L("outcome", "unwritten")...)
	ls.deadlineMiss = reg.Counter("pcmlive_deadline_miss_total",
		"Refreshes executed past the configured interval plus grace — late enough to matter.")
	return ls, nil
}

// onOutcome and onDeadlineMiss are the scheduler's metric hooks.
func (ls *liveState) onOutcome(_ int, o pcmlive.Outcome) {
	switch o {
	case pcmlive.RefreshClean:
		ls.refreshClean.Inc()
	case pcmlive.RefreshCorrected:
		ls.refreshCorrected.Inc()
	case pcmlive.RefreshUncorrectable:
		ls.refreshUncorrectable.Inc()
	case pcmlive.RefreshUnwritten:
		ls.refreshUnwritten.Inc()
	}
}

func (ls *liveState) onDeadlineMiss(_ int) { ls.deadlineMiss.Inc() }

// registerGauges installs the Shards-level live gauges once all
// devices (and the scheduler, if any) exist.
func (ls *liveState) registerGauges(reg *obs.Registry) {
	reg.GaugeFunc("pcmlive_refresh_debt_peak",
		"Highest refresh debt the scheduler has observed (blocks past the model-safe age, all shards).",
		func() float64 {
			if ls.sched == nil {
				return 0
			}
			return float64(ls.sched.DebtPeak())
		})
	reg.GaugeFunc("pcmlive_refresh_skipped_total",
		"Refresh slots deferred because taking budget would invade the foreground headroom (retried until overdue).",
		func() float64 {
			if ls.sched == nil {
				return 0
			}
			return float64(ls.sched.Stats().SkippedBudget)
		}, obs.L("reason", "budget")...)
	reg.GaugeFunc("pcmlive_refresh_skipped_total",
		"Refresh slots skipped over never-written blocks.",
		func() float64 {
			if ls.sched == nil {
				return 0
			}
			return float64(ls.sched.Stats().SkippedUnwritten)
		}, obs.L("reason", "unwritten")...)
	reg.GaugeFunc("pcmlive_refresh_forced_total",
		"Overdue refreshes that preempted the write budget (priority aging).",
		func() float64 {
			if ls.sched == nil {
				return 0
			}
			return float64(ls.sched.Stats().Forced)
		})
	reg.GaugeFunc("pcmlive_sim_seconds",
		"Simulated clock of shard 0's device.",
		func() float64 {
			if len(ls.devs) == 0 {
				return 0
			}
			return ls.devs[0].SimNow()
		})
}

// startScheduler arms budgeted refresh over the built devices. Called
// by NewShards after every shard exists; no-op when refresh is
// disabled.
func (ls *liveState) startScheduler(g *Shards) error {
	if ls.cfg.RefreshIntervalSeconds == 0 {
		return nil
	}
	sched, err := pcmlive.NewScheduler(ls.devs, pcmlive.SchedulerConfig{
		Interval:       ls.cfg.RefreshIntervalSeconds,
		Budget:         ls.budget,
		ReserveBytes:   ls.cfg.ReserveBytes,
		GraceFactor:    ls.cfg.GraceFactor,
		Exec:           g.execRefresh,
		OnOutcome:      ls.onOutcome,
		OnDeadlineMiss: ls.onDeadlineMiss,
	})
	if err != nil {
		return err
	}
	ls.sched = sched
	sched.Start()
	return nil
}

// execRefresh routes one live block refresh through the owning shard's
// queue, so refresh serializes with client traffic exactly like the
// classic scrubber's opScrub — the bank-busy interference clients
// observe. block indexes the shard's RAW device blocks (integrity
// sideband blocks included: every physical block needs refresh), which
// is why it bypasses the integrity mapping.
//
// On-schedule refresh is background work: admission sheds it under
// queue pressure, the scheduler drops the slot, and the block keeps
// aging — until the scheduler's priority aging marks it overdue and
// calls back with forced=true, which enqueues unconditionally (the
// ForceTake escape hatch: overdue refresh is never shed into data
// loss).
func (g *Shards) execRefresh(shard, block int, forced bool) (pcmlive.Outcome, error) {
	s := g.shards[shard]
	g.mu.RLock()
	if g.closed {
		g.mu.RUnlock()
		return pcmlive.RefreshUnwritten, ErrClosed
	}
	if s.healthState() == Dead {
		g.mu.RUnlock()
		return pcmlive.RefreshUnwritten, fmt.Errorf("pcmserve: shard %d is dead: %w", shard, ErrShardUnavailable)
	}
	done := make(chan shardResult, 1)
	req := shardReq{op: opRefresh, off: int64(block) * core.BlockBytes, enq: time.Now(), done: done}
	meta := opMeta{class: classBackground}
	if forced {
		meta = opMeta{} // legacy blocking: overdue refresh must land
	}
	err := s.admit(req, meta)
	g.mu.RUnlock()
	if err != nil {
		return pcmlive.RefreshUnwritten, err
	}
	r := <-done
	return r.live, r.err
}

// LiveStats reports the drift/refresh state of a live-mode service
// (Enabled false and everything zero otherwise). Safe to call
// concurrently with traffic.
type LiveStats struct {
	Enabled bool `json:"enabled"`
	// Model names the organization (e.g. "live-4LCo/bch10"); Levels is
	// its level count.
	Model  string `json:"model"`
	Levels int    `json:"levels"`
	// Configuration echoes: sim-time refresh interval, model-safe age,
	// wall-time write budget, time scale. SafeAgeSeconds is +Inf for a
	// model that never needs refresh (3LCo); JSON carries that as null.
	IntervalSeconds   float64 `json:"interval_seconds"`
	SafeAgeSeconds    float64 `json:"safe_age_seconds"`
	BudgetBytesPerSec float64 `json:"budget_bytes_per_sec"`
	TimeScale         float64 `json:"time_scale"`
	// SimSeconds is shard 0's simulated clock.
	SimSeconds float64 `json:"sim_seconds"`
	// Read outcomes across shards: served corrected (within ECC) and
	// failed uncorrectable.
	CorrectedReads     uint64 `json:"corrected_reads"`
	UncorrectableReads uint64 `json:"uncorrectable_reads"`
	// Refresh outcomes across shards (see pcmlive.Outcome), plus the
	// scheduler's pass/skip/priority counters.
	RefreshClean         uint64 `json:"refresh_clean"`
	RefreshCorrected     uint64 `json:"refresh_corrected"`
	RefreshUncorrectable uint64 `json:"refresh_uncorrectable"`
	Passes               uint64 `json:"passes"`
	Forced               uint64 `json:"forced"`
	SkippedBudget        uint64 `json:"skipped_budget"`
	SkippedUnwritten     uint64 `json:"skipped_unwritten"`
	DeadlineMisses       uint64 `json:"deadline_misses"`
	// Refresh debt: written blocks currently past the model-safe age,
	// and the highest total the scheduler has observed.
	DebtBlocks int `json:"debt_blocks"`
	DebtPeak   int `json:"debt_peak"`
	// Foreground budget contention: writes that stalled behind refresh
	// and their cumulative bank-busy time.
	StalledWrites uint64  `json:"stalled_writes"`
	StallSeconds  float64 `json:"stall_seconds"`
}

// MarshalJSON encodes an unbounded (+Inf) safe age as null, which a
// JSON number cannot carry.
func (st LiveStats) MarshalJSON() ([]byte, error) {
	type plain LiveStats
	out := struct {
		plain
		SafeAgeSeconds *float64 `json:"safe_age_seconds"`
	}{plain: plain(st)}
	if !math.IsInf(st.SafeAgeSeconds, 1) {
		out.SafeAgeSeconds = &st.SafeAgeSeconds
	}
	return json.Marshal(out)
}

// UnmarshalJSON is the inverse of MarshalJSON: a null safe age decodes
// as +Inf.
func (st *LiveStats) UnmarshalJSON(b []byte) error {
	type plain LiveStats
	in := struct {
		*plain
		SafeAgeSeconds json.RawMessage `json:"safe_age_seconds"`
	}{plain: (*plain)(st)}
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	switch string(in.SafeAgeSeconds) {
	case "":
	case "null":
		st.SafeAgeSeconds = math.Inf(1)
	default:
		return json.Unmarshal(in.SafeAgeSeconds, &st.SafeAgeSeconds)
	}
	return nil
}

// LiveStats aggregates the live-mode snapshot across shards (the zero
// value when live mode is disabled).
func (g *Shards) LiveStats() LiveStats {
	ls := g.live
	if ls == nil {
		return LiveStats{}
	}
	levels := ls.cfg.Levels
	if levels == 0 {
		levels = 4
	}
	st := LiveStats{
		Enabled:           true,
		Model:             ls.model.Name(),
		Levels:            levels,
		IntervalSeconds:   ls.cfg.RefreshIntervalSeconds,
		BudgetBytesPerSec: ls.cfg.WriteBudgetBytesPerSec,
	}
	for i, d := range ls.devs {
		ds := d.Stats()
		if i == 0 {
			st.SafeAgeSeconds = d.SafeAge()
			st.TimeScale = d.TimeScale()
			st.SimSeconds = ds.SimSeconds
		}
		st.CorrectedReads += ds.CorrectedReads
		st.UncorrectableReads += ds.UncorrectableReads
		st.RefreshClean += ds.RefreshClean
		st.RefreshCorrected += ds.RefreshCorrected
		st.RefreshUncorrectable += ds.RefreshUncorrectable
		st.StalledWrites += ds.StalledWrites
		st.StallSeconds += ds.StallSeconds
		st.DebtBlocks += ds.DebtBlocks
	}
	if ls.sched != nil {
		ss := ls.sched.Stats()
		st.Passes = ss.Passes
		st.Forced = ss.Forced
		st.SkippedBudget = ss.SkippedBudget
		st.SkippedUnwritten = ss.SkippedUnwritten
		st.DeadlineMisses = ss.DeadlineMisses
		st.DebtPeak = ss.DebtPeak
	}
	return st
}

// validateLive rejects configurations that would double-refresh or
// mis-compose live mode.
func validateLive(cfg ShardsConfig) error {
	if cfg.Live == nil {
		return nil
	}
	if cfg.ScrubInterval > 0 {
		return errors.New("pcmserve: live drift shards are refreshed by the pcmlive scheduler; ScrubInterval must be 0 (RefreshIntervalSeconds replaces it)")
	}
	if cfg.VerifyScrub {
		return errors.New("pcmserve: VerifyScrub drives the classic scrubber and cannot combine with Live")
	}
	return nil
}
