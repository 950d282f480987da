package must

import (
	"sync"
	"time"

	"must/internal/maint"
)

// MaintenanceOptions tunes StartMaintenance; zero fields take defaults.
type MaintenanceOptions struct {
	// Interval between maintenance-pressure samples (default 1s).
	Interval time.Duration
	// MinRebuildGap is the minimum time between two maintenance rebuilds
	// — the pacing that keeps compaction from monopolizing the engine
	// (default 10s). One shard rebuilds per gap.
	MinRebuildGap time.Duration
	// OverlayWatermark triggers a rebuild when a unit's overlay ratio
	// reaches it (default 0.20).
	OverlayWatermark float64
	// TombstoneWatermark triggers a rebuild when a unit's tombstone
	// ratio reaches it (default 0.20).
	TombstoneWatermark float64
	// Guard, when set, is held around every maintenance rebuild. mustd
	// shares one guard between maintenance and the periodic-snapshot
	// loop so a snapshot never captures a shard mid-compaction.
	Guard sync.Locker
	// Logf, when set, receives one line per rebuild decision and error.
	Logf func(format string, args ...any)
	// Seed seeds the scheduling jitter (0 = fixed default).
	Seed int64
}

// MaintStats is the maintenance block of /v1/stats.
type MaintStats struct {
	// Enabled is false when the serving layer runs without maintenance.
	Enabled bool `json:"enabled"`
	// Paused reports whether rebuild decisions are suspended.
	Paused bool `json:"paused"`
	// Rebuilds counts completed maintenance rebuilds.
	Rebuilds uint64 `json:"rebuilds"`
	// Failures counts maintenance rebuilds that returned an error.
	Failures uint64 `json:"failures"`
	// Debt is how many units (shards) were at or past a watermark at the
	// last sample.
	Debt int `json:"debt"`
	// LastUnit is the most recently rebuilt unit (shard index), or -1 if
	// maintenance has not rebuilt yet.
	LastUnit int `json:"last_unit"`
}

// Maintainer runs background maintenance over a Service: it samples
// each shard's overlay and tombstone ratios against the watermarks and
// issues paced RebuildShard calls, one shard at a time, so the engine
// self-heals under write churn with no caller Rebuild. Close stops the
// loop; the Service is untouched.
type Maintainer struct {
	mgr *maint.Manager
}

// serviceTarget adapts a Service onto the maint.Target surface: each
// built shard is one maintenance unit, rebuilt through RebuildShard.
type serviceTarget struct {
	svc Service
}

func (t serviceTarget) Samples() []maint.Sample {
	infos := t.svc.ShardStats()
	out := make([]maint.Sample, 0, len(infos))
	for j, info := range infos {
		if info.State != ShardBuilt.String() {
			// Pending shards have nothing to compact; a building shard is
			// already being rebuilt.
			continue
		}
		out = append(out, maint.Sample{
			Unit:           j,
			OverlayRatio:   info.Stats.OverlayRatio,
			TombstoneRatio: info.Stats.TombstoneRatio,
		})
	}
	return out
}

func (t serviceTarget) Rebuild(unit int) error { return t.svc.RebuildShard(unit) }

// StartMaintenance starts a background maintenance loop over svc and
// returns its Maintainer. For a DurableService, every maintenance
// rebuild goes through the durable write path, so it is WAL-logged
// (OpRebuildShard) like any caller-initiated rebuild.
func StartMaintenance(svc Service, o MaintenanceOptions) *Maintainer {
	return &Maintainer{mgr: maint.NewManager(serviceTarget{svc: svc}, maint.Config{
		Interval:           o.Interval,
		MinRebuildGap:      o.MinRebuildGap,
		OverlayWatermark:   o.OverlayWatermark,
		TombstoneWatermark: o.TombstoneWatermark,
		Guard:              o.Guard,
		Logf:               o.Logf,
		Seed:               o.Seed,
	})}
}

// Stats reports the maintainer's counters for serving-layer exposure.
func (m *Maintainer) Stats() MaintStats {
	return MaintStats{
		Enabled:  true,
		Paused:   m.mgr.Paused(),
		Rebuilds: m.mgr.Rebuilds(),
		Failures: m.mgr.Failures(),
		Debt:     m.mgr.Debt(),
		LastUnit: m.mgr.LastUnit(),
	}
}

// Rebuilds returns how many maintenance rebuilds completed successfully.
func (m *Maintainer) Rebuilds() uint64 { return m.mgr.Rebuilds() }

// Pause suspends rebuild decisions; sampling continues. Idempotent.
func (m *Maintainer) Pause() { m.mgr.Pause() }

// Resume re-enables rebuild decisions. Idempotent.
func (m *Maintainer) Resume() { m.mgr.Resume() }

// Kick asks the loop to sample immediately instead of waiting for the
// next tick.
func (m *Maintainer) Kick() { m.mgr.Kick() }

// Close stops the maintenance loop, waiting for any in-flight rebuild.
// Safe to call more than once.
func (m *Maintainer) Close() { m.mgr.Close() }
