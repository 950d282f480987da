// Package maint is the self-healing layer under write churn: a
// background maintenance manager that turns overlay growth and tombstone
// accumulation into paced, automatic rebuilds. The package is
// engine-agnostic — the root package adapts Engine/DurableService onto
// the small Target surface here, so the loop stays unit-testable with
// fake clocks and fake targets.
package maint

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Sample is one maintenance-pressure reading for one rebuildable unit
// (one shard of an engine).
type Sample struct {
	// Unit identifies the unit: its shard index.
	Unit int
	// OverlayRatio is overlay vertices / live objects in [0, 1+).
	OverlayRatio float64
	// TombstoneRatio is deleted objects / total stored objects in [0, 1].
	TombstoneRatio float64
}

// Target is what the Manager maintains. Implementations must tolerate
// Rebuild racing concurrent reads and writes (both engines do).
type Target interface {
	// Samples returns the current pressure reading for every unit.
	Samples() []Sample
	// Rebuild compacts one unit. It is called at most once per
	// MinRebuildGap, never concurrently with itself.
	Rebuild(unit int) error
}

// Config tunes a Manager; zero fields take defaults.
type Config struct {
	// Interval between pressure samples (default 1s).
	Interval time.Duration
	// MinRebuildGap is the minimum time between two rebuilds, pacing
	// maintenance so it never monopolizes the engine (default 10s).
	MinRebuildGap time.Duration
	// JitterFrac randomizes each sleep by ±JitterFrac of its nominal
	// duration so co-located services don't rebuild in lockstep
	// (default 0.1; negative disables).
	JitterFrac float64
	// OverlayWatermark triggers a rebuild when a unit's overlay ratio
	// meets or exceeds it (default 0.20).
	OverlayWatermark float64
	// TombstoneWatermark triggers a rebuild when a unit's tombstone
	// ratio meets or exceeds it (default 0.20).
	TombstoneWatermark float64
	// Logf, when set, receives one line per rebuild decision and error.
	Logf func(format string, args ...any)
	// Seed seeds the jitter source; 0 uses a fixed default, keeping the
	// manager free of global randomness.
	Seed int64

	// now overrides the clock in tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.MinRebuildGap <= 0 {
		c.MinRebuildGap = 10 * time.Second
	}
	if c.JitterFrac == 0 {
		c.JitterFrac = 0.1
	}
	if c.OverlayWatermark <= 0 {
		c.OverlayWatermark = 0.20
	}
	if c.TombstoneWatermark <= 0 {
		c.TombstoneWatermark = 0.20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Manager runs the background maintenance loop: every Interval it
// samples the target's units, picks the worst watermark exceeder, and
// rebuilds it — at most one unit per MinRebuildGap. Close stops the loop
// and waits for an in-flight rebuild to finish.
type Manager struct {
	cfg    Config
	target Target

	rebuilds  atomic.Uint64 // completed rebuilds
	failures  atomic.Uint64 // rebuilds that returned an error
	paused    atomic.Bool
	debt      atomic.Uint64 // units over watermark at last sample
	lastUnit  atomic.Int64  // last unit rebuilt, -1 if none
	kick      chan struct{}
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// NewManager starts the maintenance loop over target.
func NewManager(target Target, cfg Config) *Manager {
	m := &Manager{
		cfg:    cfg.withDefaults(),
		target: target,
		kick:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	m.lastUnit.Store(-1)
	go m.loop()
	return m
}

// Rebuilds returns how many maintenance rebuilds completed successfully.
func (m *Manager) Rebuilds() uint64 { return m.rebuilds.Load() }

// Failures returns how many maintenance rebuilds returned an error.
func (m *Manager) Failures() uint64 { return m.failures.Load() }

// Debt returns how many units were at or past a watermark at the last
// sample — the backpressure signal for admission control.
func (m *Manager) Debt() int { return int(m.debt.Load()) }

// LastUnit returns the unit most recently rebuilt, or -1.
func (m *Manager) LastUnit() int { return int(m.lastUnit.Load()) }

// Pause suspends rebuild decisions (sampling continues so Debt stays
// fresh). Idempotent.
func (m *Manager) Pause() { m.paused.Store(true) }

// Resume re-enables rebuild decisions. Idempotent.
func (m *Manager) Resume() { m.paused.Store(false) }

// Paused reports whether rebuild decisions are suspended.
func (m *Manager) Paused() bool { return m.paused.Load() }

// Kick asks the loop to sample immediately instead of waiting for the
// next tick. Non-blocking; coalesces with a pending kick.
func (m *Manager) Kick() {
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

// Close stops the loop and waits for an in-flight rebuild to complete.
// Safe to call more than once.
func (m *Manager) Close() {
	m.closeOnce.Do(func() { close(m.stop) })
	<-m.done
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

func (m *Manager) loop() {
	defer close(m.done)
	rng := rand.New(rand.NewSource(m.cfg.Seed))
	var lastRebuild time.Time
	for {
		d := m.cfg.Interval
		if m.cfg.JitterFrac > 0 {
			d += time.Duration((rng.Float64()*2 - 1) * m.cfg.JitterFrac * float64(d))
		}
		timer := time.NewTimer(d)
		select {
		case <-m.stop:
			timer.Stop()
			return
		case <-m.kick:
			timer.Stop()
		case <-timer.C:
		}

		unit, ok := m.pick()
		if !ok || m.paused.Load() {
			continue
		}
		now := m.cfg.now()
		if !lastRebuild.IsZero() && now.Sub(lastRebuild) < m.cfg.MinRebuildGap {
			continue
		}
		lastRebuild = now
		m.rebuild(unit)
	}
}

// pick samples the target and selects the unit furthest past a
// watermark. It also refreshes the debt gauge as a side effect.
func (m *Manager) pick() (int, bool) {
	samples := m.target.Samples()
	best, bestScore := -1, 0.0
	debt := 0
	for _, s := range samples {
		// Score = worst watermark overshoot, ≥1 means at/over.
		score := 0.0
		if m.cfg.OverlayWatermark > 0 {
			score = s.OverlayRatio / m.cfg.OverlayWatermark
		}
		if m.cfg.TombstoneWatermark > 0 {
			if t := s.TombstoneRatio / m.cfg.TombstoneWatermark; t > score {
				score = t
			}
		}
		if score >= 1 {
			debt++
			if score > bestScore {
				best, bestScore = s.Unit, score
			}
		}
	}
	m.debt.Store(uint64(debt))
	return best, best >= 0
}

func (m *Manager) rebuild(unit int) {
	m.logf("maint: rebuilding unit %d", unit)
	if err := m.target.Rebuild(unit); err != nil {
		m.failures.Add(1)
		m.logf("maint: rebuild unit %d failed: %v", unit, err)
		return
	}
	m.rebuilds.Add(1)
	m.lastUnit.Store(int64(unit))
}
