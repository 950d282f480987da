package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"must/internal/server"
)

// Operation kinds of the HTTP workloads.
const (
	opSearch = iota
	opInsert
	opDelete
	numOps
)

var opPaths = [numOps]string{"/v1/search", "/v1/insert", "/v1/delete"}

// request is one operation a source hands a worker.
type request struct {
	kind int
	body []byte
	// tag is opaque to the loop: the source's own handle for the request
	// (a pool index, a delete target).
	tag int64
}

// source generates a workload's operations. next and acked are called from
// worker w only, so per-worker state needs no lock.
type source interface {
	next(w int) request
	// acked reports an acknowledged write (ids are the inserted IDs).
	acked(w int, req request, ids []int64)
}

// record is what a traced run keeps of one request: the client's own
// timestamps plus the fields the server already returns. An untraced run
// keeps only the latency.
type record struct {
	kind            int
	start           time.Duration // since the load window opened
	total, rt       time.Duration // client wall; HTTP round trip (send → body read)
	queryMS         float64       // server-side wall, from the response
	engineMS        float64       // engine routing time, from the response
	batch           int
	cached, partial bool
}

// loadResult is one closed-loop window.
type loadResult struct {
	window    time.Duration     // the requested length; buckets tile it
	elapsed   time.Duration     // until the last in-flight request settled
	latMS     [numOps][]float64 // client-observed latency of each successful op
	attempted int
	failed    int
	shed      int      // refused with 429/503/504 (also counted failed)
	buckets   []int    // successful ops per bucketWidth, for a steady rate
	records   []record // traced runs only
	firstErr  error    // first failure, for the report
}

const bucketWidth = 500 * time.Millisecond

// opsPerS is the interquartile mean of the per-bucket completion rates: the
// typical throughput of the window, which a stall (a GC cycle, a shard
// rebuild) does not move; stalls show in the tail percentiles instead.
func (r *loadResult) opsPerS() float64 {
	if len(r.buckets) == 0 {
		return 0
	}
	rates := make([]float64, len(r.buckets))
	for i, n := range r.buckets {
		width := bucketWidth
		if rest := r.window - time.Duration(i)*bucketWidth; rest < width {
			width = rest // the window's last, shorter bucket
		}
		rates[i] = float64(n) / width.Seconds()
	}
	sort.Float64s(rates)
	mid := rates[len(rates)/4 : len(rates)-len(rates)/4]
	sum := 0.0
	for _, v := range mid {
		sum += v
	}
	return sum / float64(len(mid))
}

// allLatencies pools every op kind's latencies: the mix a client saw.
func (r *loadResult) allLatencies() []float64 {
	var all []float64
	for _, l := range r.latMS {
		all = append(all, l...)
	}
	return all
}

// workers is the closed-loop client count: min(nproc, 4) callers that each
// wait for their reply before sending the next request.
func workers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		n = 4
	}
	return n
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
	}}
}

// post sends one JSON body and reads the whole reply into buf.
func post(hc *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// runLoad drives src against base with one goroutine per worker for dur.
// Every worker finishes the request it has in flight, so no operation is
// left unacknowledged when runLoad returns.
func runLoad(base string, src source, dur time.Duration, traced bool) *loadResult {
	n := workers()
	hc := newHTTPClient(n)
	defer hc.CloseIdleConnections()
	nb := int((dur + bucketWidth - 1) / bucketWidth)
	parts := make([]loadResult, n)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &parts[w]
			p.buckets = make([]int, nb)
			var buf bytes.Buffer
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				req := src.next(w)
				p.attempted++
				status, err := post(hc, base+opPaths[req.kind], req.body, &buf)
				t1 := time.Now()
				rec := record{kind: req.kind, start: t0.Sub(start), rt: t1.Sub(t0)}
				if err == nil {
					err = settle(src, w, req, status, buf.Bytes(), &rec)
				}
				rec.total = time.Since(t0)
				if err != nil {
					p.failed++
					if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable || status == http.StatusGatewayTimeout {
						p.shed++
					}
					if p.firstErr == nil {
						p.firstErr = err
					}
					continue
				}
				p.latMS[req.kind] = append(p.latMS[req.kind], ms(rec.total))
				if b := int(t0.Sub(start) / bucketWidth); b < nb {
					p.buckets[b]++
				}
				if traced {
					p.records = append(p.records, rec)
				}
			}
		}(w)
	}
	wg.Wait()
	out := &loadResult{window: dur, elapsed: time.Since(start), buckets: make([]int, nb)}
	for i := range parts {
		p := &parts[i]
		out.attempted += p.attempted
		out.failed += p.failed
		out.shed += p.shed
		for k := range p.latMS {
			out.latMS[k] = append(out.latMS[k], p.latMS[k]...)
		}
		for b, c := range p.buckets {
			out.buckets[b] += c
		}
		out.records = append(out.records, p.records...)
		if out.firstErr == nil {
			out.firstErr = p.firstErr
		}
	}
	return out
}

// settle decodes a reply, checks it answers the request, tells the source
// about acknowledged writes, and copies the server's own timings into rec.
func settle(src source, w int, req request, status int, body []byte, rec *record) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", opPaths[req.kind], status, bytes.TrimSpace(body))
	}
	switch req.kind {
	case opSearch:
		var r server.SearchResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if len(r.Matches) != topK {
			return fmt.Errorf("search returned %d matches, want %d", len(r.Matches), topK)
		}
		rec.queryMS, rec.engineMS = r.QueryTimeMS, r.EngineTimeMS
		rec.batch, rec.cached, rec.partial = r.BatchSize, r.Cached, r.Partial
	case opInsert:
		var r server.InsertResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if len(r.IDs) != 1 {
			return fmt.Errorf("insert returned %d ids, want 1", len(r.IDs))
		}
		src.acked(w, req, r.IDs)
	case opDelete:
		var r server.DeleteResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Deleted != 1 {
			return fmt.Errorf("delete removed %d objects, want 1", r.Deleted)
		}
		src.acked(w, req, nil)
	}
	return nil
}

// searchOnce posts one search outside a load window and returns the match
// IDs in order.
func searchOnce(hc *http.Client, base string, body []byte) ([]int, error) {
	var buf bytes.Buffer
	status, err := post(hc, base+opPaths[opSearch], body, &buf)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(buf.Bytes()))
	}
	var r server.SearchResponse
	if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
		return nil, err
	}
	ids := make([]int, len(r.Matches))
	for i, m := range r.Matches {
		ids[i] = int(m.ID)
	}
	return ids, nil
}

// serverStats reads GET /v1/stats.
func serverStats(hc *http.Client, base string) (*server.StatsResponse, error) {
	resp, err := hc.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	var st server.StatsResponse
	return &st, json.NewDecoder(resp.Body).Decode(&st)
}
