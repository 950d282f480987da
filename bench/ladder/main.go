// Command ladder is the repository's one benchmark: six workloads that
// between them make every layer of MUST work, from the dot kernel to a
// WAL-acked write, measured end to end (untraced) and layer by layer
// (traced). See README.md in this directory for the glossary and
// BENCHMARK.json at the repository root for the contract.
//
//	go run ./bench/ladder -seed 1                      # every workload, untraced then traced
//	go run ./bench/ladder -workload serve_read -trace 1 # one workload, one mode, JSON on the last line
//	go run ./bench/ladder -repeat 10                   # run-to-run spread of every end-to-end metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"must/internal/vec"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload and print its result as one JSON object on the last line (default: all, untraced then traced)")
		seed     = flag.Int64("seed", 1, "seed of every generated input: corpus, query pools, operation mix")
		seconds  = flag.Float64("seconds", 8, "length of the timed window of one run")
		trace    = flag.Int("trace", 0, "with -workload: 0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics and a trace file")
		repeat   = flag.Int("repeat", 0, "run each workload this many times untraced, each in its own process on its own seed, and print every end-to-end metric's median, quartiles and spread against its bound")
		out      = flag.String("out", filepath.Join("bench", "ladder", "out"), "directory for trace files and scratch data")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "ladder: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	cfg := runConfig{sc: fullScale, seed: *seed, seconds: *seconds, traced: *trace == 1, outDir: *out}
	code, err := run(os.Stdout, *workload, cfg, *repeat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ladder: %v\n", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// run returns the exit code: 0 when every check of every run passed.
func run(w io.Writer, workload string, cfg runConfig, repeat int) (int, error) {
	names := []string{workload}
	if workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if !knownWorkload(workload) {
		return 2, fmt.Errorf("unknown workload %q", workload)
	}
	if repeat > 0 {
		return runRepeat(w, names, cfg.seed, cfg.seconds, repeat, cfg.outDir)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return 1, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(tmp)
	cfg.tmpDir = tmp

	fmt.Fprintf(w, "ladder: nproc=%d clients=%d kernel=%s %s seed=%d seconds=%g\n",
		runtime.GOMAXPROCS(0), workers(), vec.KernelName(), runtime.Version(), cfg.seed, cfg.seconds)
	modes := []bool{cfg.traced}
	if workload == "" {
		modes = []bool{false, true}
	}
	code := 0
	for _, name := range names {
		for _, mode := range modes {
			cfg.traced = mode
			res, err := runWorkload(name, cfg)
			if err != nil {
				return 1, fmt.Errorf("%s: %w", name, err)
			}
			line, err := report(w, res)
			if err != nil {
				return 1, err
			}
			// The contract: the result is the last line of standard output.
			fmt.Fprintln(w, line)
			if res.failed > 0 {
				code = 1
			}
		}
	}
	return code, nil
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricOut and resultOut are the contract's result object.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report prints a run for people and returns its one-line JSON result. It
// refuses a run that does not carry exactly the registry's metrics for its
// mode, each finite: a missing rung must fail loudly, not read as zero.
func report(w io.Writer, res *runResult) (string, error) {
	specs, mode := endToEnd, "untraced"
	if res.traced {
		specs, mode = perLayer, "traced"
	}
	if len(res.metrics) != len(specs) {
		var extra []string
		for name := range res.metrics {
			extra = append(extra, name)
		}
		sort.Strings(extra)
		return "", fmt.Errorf("%s %s: run carries %d metrics %v, registry has %d", res.workload, mode, len(res.metrics), extra, len(specs))
	}
	out := resultOut{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricOut, len(specs)),
	}
	fmt.Fprintf(w, "\n== %s (%s) ==\n", res.workload, mode)
	for _, s := range specs {
		v, ok := res.metrics[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("%s %s: metric %s missing or not finite (%v)", res.workload, mode, s.Name, v)
		}
		out.Metrics[s.Name] = metricOut{Value: v, Unit: s.Unit}
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", s.Name, v, s.Unit)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	if len(res.ladder) > 0 {
		printLadder(w, "ladder of one "+res.workload+" search (medians; rungs below engine.search are one-caller library calls)", res.ladder)
	}
	if len(res.writeLadder) > 0 {
		printLadder(w, "ladder of one "+res.workload+" acked insert (medians)", res.writeLadder)
	}
	if res.tracePath != "" {
		fmt.Fprintf(w, "  trace: %s\n", res.tracePath)
	}
	base := res.attempted
	if base == 0 {
		return "", fmt.Errorf("%s %s: nothing attempted", res.workload, mode)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d failed_ratio=%.6f (base %d) correct=%v\n",
		res.attempted, res.failed, float64(res.failed)/float64(base), base, out.Correct)
	line, err := json.Marshal(out)
	return string(line), err
}
