// Package maint is the self-healing layer under write churn: a
// per-shard health circuit breaker and a background maintenance manager
// that turns overlay growth and tombstone accumulation into paced,
// automatic rebuilds. The package is engine-agnostic — the root package
// adapts Engine/DurableService onto the small Target and
// breaker surfaces here, so the state machines stay unit-testable with
// fake clocks and fake targets.
package maint

import (
	"sync"
	"time"
)

// State is a circuit breaker's health state.
type State uint32

const (
	// Healthy: the unit serves normally.
	Healthy State = iota
	// Degraded: recent consecutive failures below the quarantine
	// threshold. Still serving; one success resets to Healthy.
	Degraded
	// Quarantined: the breaker is open. The unit is skipped by fan-out
	// until a half-open probe succeeds or a rebuild resets it.
	Quarantined
	// Probing: half-open — one in-flight probe request has been admitted
	// to test whether the unit recovered. Success re-admits (Healthy),
	// failure re-opens (Quarantined).
	Probing
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Quarantined:
		return "quarantined"
	case Probing:
		return "probing"
	}
	return "unknown"
}

// BreakerConfig tunes one circuit breaker; zero fields take defaults.
type BreakerConfig struct {
	// Threshold is K: consecutive failures within Window before the
	// breaker opens (default 3).
	Threshold int
	// Window bounds how far apart "consecutive" failures may be: a
	// failure more than Window after the previous one restarts the count
	// (default 10s).
	Window time.Duration
	// Probe is how long a quarantined breaker stays fully open before
	// admitting one half-open probe request (default 5s).
	Probe time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.Window <= 0 {
		c.Window = 10 * time.Second
	}
	if c.Probe <= 0 {
		c.Probe = 5 * time.Second
	}
	return c
}

// Breaker is a per-unit health circuit breaker:
//
//	healthy → degraded (first failure) → quarantined (K consecutive
//	failures within the window) → probing (one request admitted after
//	the probe interval) → healthy (probe succeeded) or back to
//	quarantined (probe failed). A rebuild of the unit calls Reset,
//	re-admitting it immediately.
//
// All methods are safe for concurrent use. Failures are expected to be
// coarse-grained (one per fan-out, not one per query), so a mutex is
// fine.
type Breaker struct {
	cfg BreakerConfig

	mu          sync.Mutex
	state       State
	consecutive int       // consecutive failures in the current run
	lastFailure time.Time // when the run's latest failure landed
	openedAt    time.Time // when the breaker last opened
	lastProbe   time.Time // when the last half-open probe was admitted
}

// NewBreaker returns a Healthy breaker with the given config.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// State returns the current health state.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Failures returns the current consecutive-failure count.
func (b *Breaker) Failures() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.consecutive
}

// Failure records one failed interaction (panic or timeout) at now and
// returns the resulting state. A failure while Probing re-opens the
// breaker and restarts the probe clock.
func (b *Breaker) Failure(now time.Time) State {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Quarantined:
		// Already open (e.g. a straggler from a fan-out that tripped the
		// breaker); nothing changes.
		return b.state
	case Probing:
		b.state = Quarantined
		b.openedAt = now
		b.lastProbe = now
		return b.state
	}
	if !b.lastFailure.IsZero() && now.Sub(b.lastFailure) > b.cfg.Window {
		b.consecutive = 0
	}
	b.consecutive++
	b.lastFailure = now
	if b.consecutive >= b.cfg.Threshold {
		b.state = Quarantined
		b.openedAt = now
		b.lastProbe = now
	} else {
		b.state = Degraded
	}
	return b.state
}

// Success records one successful interaction: any non-quarantined state
// (including a half-open probe) resets to Healthy. A success while
// Quarantined is ignored — only an admitted probe (state Probing) or a
// Reset re-admits an open breaker, so a late straggler from before the
// quarantine cannot close it.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Quarantined {
		return
	}
	b.state = Healthy
	b.consecutive = 0
	b.lastFailure = time.Time{}
}

// Allow reports whether a request may be routed to the unit at now.
// Healthy and Degraded always admit. Quarantined admits exactly one
// request per Probe interval — the half-open probe, whose admission
// moves the breaker to Probing; while that probe is in flight all
// other requests are refused, and its outcome (Success/Failure)
// decides re-admission. A probe whose outcome never arrives (the
// fan-out was cancelled and its worker abandoned, or the caller deemed
// the batch neutral) does not wedge the breaker: after another Probe
// interval a fresh probe is admitted.
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Healthy, Degraded:
		return true
	case Probing:
		if now.Sub(b.lastProbe) >= b.cfg.Probe {
			b.lastProbe = now
			return true
		}
		return false
	}
	if now.Sub(b.lastProbe) >= b.cfg.Probe {
		b.state = Probing
		b.lastProbe = now
		return true
	}
	return false
}

// Configure replaces the breaker's thresholds (zero fields take
// defaults) and resets it to Healthy.
func (b *Breaker) Configure(cfg BreakerConfig) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cfg = cfg.withDefaults()
	b.state = Healthy
	b.consecutive = 0
	b.lastFailure = time.Time{}
}

// Reset force-closes the breaker — called after the unit was rebuilt,
// which replaces the state the failures were blamed on.
func (b *Breaker) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = Healthy
	b.consecutive = 0
	b.lastFailure = time.Time{}
}
