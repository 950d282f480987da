package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

func smokeConfig(t *testing.T) runConfig {
	dir := t.TempDir()
	return runConfig{sc: smokeScale, seed: 1, seconds: 0.2, outDir: dir, tmpDir: dir}
}

// TestSmoke runs every workload in both modes on 512-object fixtures for
// 200 ms and checks the result object: every metric of the mode exactly
// once, finite, with its unit and a well-formed name, and a correct run.
// The runs only have to be well-formed, not well-timed, so they share the
// cores.
func TestSmoke(t *testing.T) {
	t.Parallel()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w.Name, traced), func(t *testing.T) {
				t.Parallel()
				smoke(t, w.Name, traced)
			})
		}
	}
}

func smoke(t *testing.T, workload string, traced bool) {
	cfg := smokeConfig(t)
	cfg.traced = traced
	res, err := runWorkload(workload, cfg)
	if err != nil {
		t.Fatal(err)
	}
	line, err := report(io.Discard, res)
	if err != nil {
		t.Fatal(err)
	}
	var out resultOut
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatalf("result line is not JSON: %v", err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d notes=%v", out.Correct, out.Attempted, out.Failed, res.notes)
	}
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	if len(out.Metrics) != len(specs) {
		t.Errorf("%d metrics emitted, registry has %d", len(out.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := out.Metrics[s.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", s.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", s.Name, m.Value)
		case m.Unit != s.Unit || m.Unit == "":
			t.Errorf("metric %s has unit %q, registry says %q", s.Name, m.Unit, s.Unit)
		case !nameRE.MatchString(s.Name):
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", s.Name)
		case !traced && m.Value == 0:
			t.Errorf("end-to-end metric %s is 0", s.Name)
		}
	}
	if traced {
		if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+workload+".json")); err != nil {
			t.Errorf("no trace file: %v", err)
		}
	}
}

// A failed correctness check must fail the run: expecting a wrong ID from
// the wire check marks the result incorrect and makes the command exit
// non-zero (TestSmoke shows the same run exits clean without it).
func TestWrongExpectedIDFailsRun(t *testing.T) {
	t.Parallel()
	cfg := smokeConfig(t)
	cfg.corruptExpected = true
	code, err := run(io.Discard, wServeRead, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if code == 0 {
		t.Error("run exited 0 although the wire check expected a wrong ID")
	}
}

// benchmarkFile mirrors BENCHMARK.json; DisallowUnknownFields below makes
// any key outside the contract a failure.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONAgreesWithProgram keeps BENCHMARK.json and the registry
// in spec.go the same list, in the same order.
func TestBenchmarkJSONAgreesWithProgram(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench/ladder"}) {
		t.Errorf("paths = %v, want [bench/ladder]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, outside 1..60", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := b.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %+v", i, got, w)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, s := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != s.Name || got.Unit != s.Unit || got.Better != s.Better || got.Bound != s.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, program has %+v", i, got, s)
		}
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		if seen[s.Name] {
			t.Errorf("metric name %s used twice", s.Name)
		}
		seen[s.Name] = true
		hasSetup = hasSetup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(b.PerLayer), len(perLayer))
	}
	for i, s := range perLayer {
		got := b.PerLayer[i]
		if got.Name != s.Name || got.Unit != s.Unit || got.Better != s.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, program has %+v", i, got, s)
		}
		if s.Moves == "" {
			t.Errorf("%s: no prediction of what it moves", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("metric name %s used twice", s.Name)
		}
		seen[s.Name] = true
	}
}
