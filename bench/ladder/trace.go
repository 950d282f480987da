package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary the benchmark can see from
// outside: its own calls into the system, and the server-side intervals the
// response fields let it reconstruct. Spans of one request share Request.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 = no parent
	Request int     `json:"request,omitempty"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"` // since the tracer's origin
	EndUS   float64 `json:"end_us"`
	// Reconstructed marks a span whose duration comes from a response field
	// (query_time_ms, engine_time_ms) and whose position inside its parent
	// is assumed, not observed.
	Reconstructed bool `json:"reconstructed,omitempty"`
}

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) since(at time.Time) float64 { return us(at.Sub(t.origin)) }

// add records a span given in microseconds since the origin and returns
// its id.
func (t *tracer) add(name string, parent, request int, startUS, endUS float64, reconstructed bool) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Request: request, Name: name,
		StartUS: startUS, EndUS: endUS, Reconstructed: reconstructed,
	})
	return id
}

// maxTracedRequests bounds the per-request spans kept, so the trace file
// stays a few megabytes however fast the workload runs.
const maxTracedRequests = 4000

// addRequests turns the records of a traced load window into spans:
//
//	client.request ⊃ http.roundtrip ⊃ server.total ⊃ engine.search
//	client.request ⊃ client.decode
//
// server.total and engine.search are reconstructed from query_time_ms and
// engine_time_ms; a cached reply carries the original search's engine time,
// which did not happen again, so it gets no engine.search span.
func (t *tracer) addRequests(windowStart time.Time, recs []record) {
	base := t.since(windowStart)
	if len(recs) > maxTracedRequests {
		recs = recs[:maxTracedRequests]
	}
	for i, r := range recs {
		req := i + 1
		start := base + us(r.start)
		root := t.add("client.request", 0, req, start, start+us(r.total), false)
		rt := t.add("http.roundtrip", root, req, start, start+us(r.rt), false)
		t.add("client.decode", root, req, start+us(r.rt), start+us(r.total), false)
		if r.kind != opSearch {
			continue
		}
		query := r.queryMS * 1000
		if query > us(r.rt) {
			query = us(r.rt)
		}
		// The server interval is centred in the round trip: the request and
		// the reply each cross the loopback once.
		sStart := start + (us(r.rt)-query)/2
		srv := t.add("server.total", rt, req, sStart, sStart+query, true)
		if !r.cached {
			engine := r.engineMS * 1000
			if engine > query {
				engine = query
			}
			t.add("engine.search", srv, req, sStart+query-engine, sStart+query, true)
		}
	}
}

// selfTimes returns, per span name, each span's duration minus the part of
// it its child spans cover, in microseconds.
func selfTimes(spans []span) map[string][]float64 {
	covered := make(map[int]float64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.EndUS - s.StartUS
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		self := s.EndUS - s.StartUS - covered[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.Name] = append(out[s.Name], self)
	}
	return out
}

// write stores the trace as JSON.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// ladderRow is one rung of the printed ladder: its own time and, through
// depth, the rung above it.
type ladderRow struct {
	depth int
	name  string
	us    float64
	note  string
}

// printLadder prints each rung's time and its share of the rung above.
func printLadder(w io.Writer, title string, rows []ladderRow) {
	fmt.Fprintf(w, "\n%s\n", title)
	fmt.Fprintf(w, "  %-44s %10s  %s\n", "rung", "us", "share of rung above")
	var above [8]float64
	for _, r := range rows {
		share := ""
		if r.depth > 0 && above[r.depth-1] > 0 {
			share = fmt.Sprintf("%5.1f%% of %.1f us", 100*r.us/above[r.depth-1], above[r.depth-1])
		}
		above[r.depth] = r.us
		name := fmt.Sprintf("%*s%s", 2*r.depth, "", r.name)
		fmt.Fprintf(w, "  %-44s %10.1f  %s", name, r.us, share)
		if r.note != "" {
			fmt.Fprintf(w, "  (%s)", r.note)
		}
		fmt.Fprintln(w)
	}
}
