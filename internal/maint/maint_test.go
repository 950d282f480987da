package maint

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeTarget is a Target with settable samples and a recorded rebuild
// log; Rebuild clears the rebuilt unit's pressure.
type fakeTarget struct {
	mu       sync.Mutex
	samples  []Sample
	rebuilt  []int
	rebuildE error
}

func (f *fakeTarget) Samples() []Sample {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Sample, len(f.samples))
	copy(out, f.samples)
	return out
}

func (f *fakeTarget) Rebuild(unit int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rebuilt = append(f.rebuilt, unit)
	if f.rebuildE != nil {
		return f.rebuildE
	}
	for i := range f.samples {
		if f.samples[i].Unit == unit {
			f.samples[i] = Sample{Unit: unit}
		}
	}
	return nil
}

func (f *fakeTarget) rebuiltUnits() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]int, len(f.rebuilt))
	copy(out, f.rebuilt)
	return out
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestManagerRebuildsWorstUnit(t *testing.T) {
	ft := &fakeTarget{samples: []Sample{
		{Unit: 0, OverlayRatio: 0.25},
		{Unit: 1, TombstoneRatio: 0.60}, // worst overshoot → first
		{Unit: 2, OverlayRatio: 0.05},   // under watermark → never
	}}
	m := NewManager(ft, Config{
		Interval:           time.Millisecond,
		MinRebuildGap:      time.Millisecond,
		OverlayWatermark:   0.20,
		TombstoneWatermark: 0.20,
	})
	defer m.Close()
	waitFor(t, "two rebuilds", func() bool { return m.Rebuilds() >= 2 })
	got := ft.rebuiltUnits()
	if got[0] != 1 {
		t.Fatalf("first rebuild hit unit %d, want 1 (worst overshoot)", got[0])
	}
	if got[1] != 0 {
		t.Fatalf("second rebuild hit unit %d, want 0", got[1])
	}
	// Unit 2 never crossed a watermark; with all pressure cleared the
	// loop must go quiet.
	n := m.Rebuilds()
	time.Sleep(20 * time.Millisecond)
	if m.Rebuilds() != n {
		t.Fatalf("manager rebuilt with no unit over watermark")
	}
	for _, u := range ft.rebuiltUnits() {
		if u == 2 {
			t.Fatal("unit 2 rebuilt despite being under watermark")
		}
	}
}

func TestManagerMinRebuildGapPaces(t *testing.T) {
	base := time.Unix(1000, 0)
	var clock struct {
		mu sync.Mutex
		t  time.Time
	}
	clock.t = base
	ft := &fakeTarget{samples: []Sample{
		{Unit: 0, OverlayRatio: 0.90},
		{Unit: 1, OverlayRatio: 0.80},
	}}
	m := NewManager(ft, Config{
		Interval:      time.Millisecond,
		MinRebuildGap: time.Hour, // frozen clock never advances past it
		now: func() time.Time {
			clock.mu.Lock()
			defer clock.mu.Unlock()
			return clock.t
		},
	})
	defer m.Close()
	waitFor(t, "first rebuild", func() bool { return m.Rebuilds() == 1 })
	// Clock frozen inside the gap: no second rebuild despite unit 1
	// still being over watermark.
	time.Sleep(20 * time.Millisecond)
	if got := m.Rebuilds(); got != 1 {
		t.Fatalf("rebuilds=%d want 1 while inside MinRebuildGap", got)
	}
	// Advance past the gap → unit 1 gets its turn.
	clock.mu.Lock()
	clock.t = base.Add(2 * time.Hour)
	clock.mu.Unlock()
	waitFor(t, "second rebuild", func() bool { return m.Rebuilds() == 2 })
	if got := ft.rebuiltUnits(); got[1] != 1 {
		t.Fatalf("second rebuild hit unit %d, want 1", got[1])
	}
}

func TestManagerPauseResume(t *testing.T) {
	ft := &fakeTarget{samples: []Sample{{Unit: 0, OverlayRatio: 0.90}}}
	m := NewManager(ft, Config{Interval: time.Millisecond, MinRebuildGap: time.Millisecond})
	defer m.Close()
	m.Pause()
	time.Sleep(20 * time.Millisecond)
	if got := m.Rebuilds(); got > 1 {
		t.Fatalf("rebuilds=%d while paused (allowing one pre-pause race)", got)
	}
	// Debt stays fresh while paused: sampling continues.
	waitFor(t, "debt gauge", func() bool { return m.Debt() >= 1 })
	m.Resume()
	waitFor(t, "rebuild after resume", func() bool { return m.Rebuilds() >= 1 })
}

func TestManagerRebuildErrorCounted(t *testing.T) {
	ft := &fakeTarget{
		samples:  []Sample{{Unit: 0, OverlayRatio: 0.90}},
		rebuildE: errors.New("boom"),
	}
	m := NewManager(ft, Config{Interval: time.Millisecond, MinRebuildGap: time.Millisecond})
	defer m.Close()
	waitFor(t, "failure counter", func() bool { return m.Failures() >= 1 })
	if got := m.Rebuilds(); got != 0 {
		t.Fatalf("rebuilds=%d want 0 when every rebuild fails", got)
	}
}

func TestManagerGuardHeldDuringRebuild(t *testing.T) {
	var guard sync.Mutex
	ft := &fakeTarget{samples: []Sample{{Unit: 0, OverlayRatio: 0.90}}}
	m := NewManager(ft, Config{
		Interval:      time.Millisecond,
		MinRebuildGap: time.Hour,
		Guard:         &guard,
	})
	defer m.Close()
	// Holding the guard blocks the rebuild: simulate the snapshot loop.
	guard.Lock()
	time.Sleep(10 * time.Millisecond)
	if got := m.Rebuilds(); got != 0 {
		t.Fatalf("rebuild ran while guard was held externally")
	}
	guard.Unlock()
	waitFor(t, "rebuild after guard release", func() bool { return m.Rebuilds() == 1 })
}

func TestManagerCloseStopsLoop(t *testing.T) {
	ft := &fakeTarget{samples: []Sample{{Unit: 0, OverlayRatio: 0.90}}}
	m := NewManager(ft, Config{Interval: time.Millisecond, MinRebuildGap: time.Millisecond})
	m.Close()
	m.Close() // idempotent
	n := len(ft.rebuiltUnits())
	time.Sleep(10 * time.Millisecond)
	if got := len(ft.rebuiltUnits()); got != n {
		t.Fatal("manager kept rebuilding after Close")
	}
}

func TestManagerKick(t *testing.T) {
	ft := &fakeTarget{samples: []Sample{{Unit: 0, OverlayRatio: 0.90}}}
	m := NewManager(ft, Config{Interval: time.Hour, MinRebuildGap: time.Millisecond})
	defer m.Close()
	time.Sleep(5 * time.Millisecond)
	if m.Rebuilds() != 0 {
		t.Fatal("rebuild before kick despite hour-long interval")
	}
	m.Kick()
	waitFor(t, "rebuild after kick", func() bool { return m.Rebuilds() == 1 })
}
