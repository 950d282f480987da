package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"

	"must/internal/vec"
)

// runRepeat measures the benchmark's own steadiness the way the driver
// does: every workload n times untraced, each run a fresh process on its
// own seed (seed, seed+1, …), then per end-to-end metric the quartiles of
// the n values as Python's statistics.quantiles(n=4) gives them and their
// distance as a share of the median, against the metric's bound.
func runRepeat(w io.Writer, names []string, seed int64, seconds float64, n int, out string) (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(w, "ladder -repeat %d: nproc=%d clients=%d kernel=%s %s seeds=%d..%d seconds=%g\n",
		n, runtime.GOMAXPROCS(0), workers(), vec.KernelName(), runtime.Version(), seed, seed+int64(n)-1, seconds)
	code := 0
	for _, name := range names {
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			cmd := exec.Command(self,
				"-workload", name,
				"-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", "0", "-out", out)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return 1, fmt.Errorf("%s run %d: %w\n%s", name, i, err, stdout)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var r resultOut
			if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
				return 1, fmt.Errorf("%s run %d: last line is not a result: %w", name, i, err)
			}
			if !r.Correct {
				code = 1
				fmt.Fprintf(w, "%s run %d (seed %d): incorrect, %d of %d failed\n", name, i, seed+int64(i), r.Failed, r.Attempted)
			}
			for m, v := range r.Metrics {
				values[m] = append(values[m], v.Value)
			}
		}
		fmt.Fprintf(w, "\n%s\n  %-26s %12s %12s %12s %8s %7s  %s\n", name, "metric", "q1", "median", "q3", "spread", "bound", "verdict")
		for _, s := range endToEnd {
			q1, q2, q3 := quartiles(values[s.Name])
			sp := spread(values[s.Name])
			verdict := "steady (below a third of the bound)"
			switch {
			case s.Name == mSetup:
				verdict = "not gated on spread"
			case sp > s.Bound:
				verdict = "TOO NOISY (spread above the bound)"
				code = 1
			case sp > s.Bound/3:
				verdict = "within the bound"
			}
			fmt.Fprintf(w, "  %-26s %12.6g %12.6g %12.6g %8.4f %7.3f  %s\n", s.Name, q1, q2, q3, sp, s.Bound, verdict)
		}
		for _, s := range endToEnd {
			fmt.Fprintf(w, "  %s by run:", s.Name)
			for _, v := range values[s.Name] {
				fmt.Fprintf(w, " %.5g", v)
			}
			fmt.Fprintln(w)
		}
	}
	return code, nil
}
