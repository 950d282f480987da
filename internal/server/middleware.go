package server

import (
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// statusRecorder captures the status code a handler wrote so the
// instrumentation wrapper can label its counters.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// admitClass selects which in-flight budget an endpoint competes for.
// Reads and writes are admitted separately so a write flood is shed
// without costing search admission (and vice versa); observability
// endpoints never compete — an overloaded server must still answer
// /healthz and /metrics.
type admitClass int

const (
	admitNone admitClass = iota
	admitRead
	admitWrite
)

// endpoint wraps a handler with the serving-tier middleware stack:
// method filtering, drain refusal, per-class admission control (429 +
// Retry-After when the class's in-flight budget is exhausted), the
// in-flight gauge, and per-endpoint request/latency metrics. name is
// the metrics label.
func (s *Server) endpoint(name, method string, class admitClass, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			s.metrics.ObserveRequest(name, rec.code, time.Since(start).Seconds())
		}()
		if r.Method != method {
			rec.Header().Set("Allow", method)
			writeError(rec, http.StatusMethodNotAllowed, "method not allowed")
			return
		}
		if s.draining.Load() {
			writeError(rec, http.StatusServiceUnavailable, "server draining")
			return
		}
		if class != admitNone {
			sem := s.sem
			what := "requests"
			if class == admitWrite {
				sem = s.wsem
				what = "writes"
			}
			select {
			case sem <- struct{}{}:
				s.metrics.inFlight.Add(1)
				defer func() {
					s.metrics.inFlight.Add(-1)
					<-sem
				}()
			default:
				// Admission control: shedding beats queueing — the client
				// learns in microseconds that it should back off, instead
				// of joining an unbounded queue that grows p99 for
				// everyone.
				s.metrics.rejected.Add(1)
				if class == admitWrite {
					s.metrics.writesShed.Add(1)
				}
				rec.Header().Set("Retry-After", "1")
				writeError(rec, http.StatusTooManyRequests, "too many in-flight "+what)
				return
			}
		}
		h(rec, r)
	})
}

// writeError emits the uniform JSON error body.
func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: msg})
}

// writeJSON emits a 200 JSON body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

var replyPool = sync.Pool{New: func() any { return new([]byte) }}

// writeSearch emits a 200 search reply: what writeJSON would write,
// encoded without reflection into a pooled buffer and written at once.
func (s *Server) writeSearch(w http.ResponseWriter, r *SearchResponse) {
	w.Header().Set("Content-Type", "application/json")
	buf := replyPool.Get().(*[]byte)
	b, ok := appendSearchResponse((*buf)[:0], r, s.modalityKeys)
	if ok {
		_, _ = w.Write(b)
	}
	if cap(b) <= maxPooledBody {
		*buf = b
		replyPool.Put(buf)
	}
}

// jsonKey is a map key and its JSON string, quoted by encoding/json.
type jsonKey struct {
	name   string
	quoted []byte
}

// quoteKeys quotes names and sorts them in the order encoding/json
// writes map keys.
func quoteKeys(names []string) []jsonKey {
	keys := make([]jsonKey, len(names))
	for i, name := range names {
		quoted, _ := json.Marshal(name) // a string always marshals
		keys[i] = jsonKey{name, quoted}
	}
	slices.SortFunc(keys, func(a, b jsonKey) int { return strings.Compare(a.name, b.name) })
	return keys
}

// appendSearchResponse appends the bytes json.NewEncoder(w).Encode(r)
// writes, final newline included; keys are the by_modality names quoted
// in advance. ok is false where encoding/json fails and writes nothing:
// on a NaN or infinite float.
func appendSearchResponse(b []byte, r *SearchResponse, keys []jsonKey) (_ []byte, ok bool) {
	ok = true
	b = append(b, `{"matches":`...)
	if r.Matches == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Matches {
			m := &r.Matches[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"id":`...)
			b = strconv.AppendInt(b, m.ID, 10)
			b = append(b, `,"similarity":`...)
			b = appendFloat(b, float64(m.Similarity), 32, &ok)
			if len(m.ByModality) > 0 {
				b = append(b, `,"by_modality":`...)
				b = appendFloatMap(b, m.ByModality, keys, &ok)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"query_time_ms":`...)
	b = appendFloat(b, r.QueryTimeMS, 64, &ok)
	b = append(b, `,"engine_time_ms":`...)
	b = appendFloat(b, r.EngineTimeMS, 64, &ok)
	if r.Cached {
		b = append(b, `,"cached":true`...)
	}
	if r.DecodeMS != 0 {
		b = append(b, `,"decode_ms":`...)
		b = appendFloat(b, r.DecodeMS, 64, &ok)
	}
	if r.BatchSize != 0 {
		b = append(b, `,"batch_size":`...)
		b = strconv.AppendInt(b, int64(r.BatchSize), 10)
	}
	if r.QueueMS != 0 {
		b = append(b, `,"queue_ms":`...)
		b = appendFloat(b, r.QueueMS, 64, &ok)
	}
	if r.Partial {
		b = append(b, `,"partial":true`...)
	}
	if len(r.ShardErrors) > 0 {
		raw, _ := json.Marshal(r.ShardErrors) // ints and strings always marshal
		b = append(b, `,"shard_errors":`...)
		b = append(b, raw...)
	}
	b = append(b, `,"stats":{"full_evals":`...)
	b = strconv.AppendInt(b, int64(r.Stats.FullEvals), 10)
	b = append(b, `,"partial_skips":`...)
	b = strconv.AppendInt(b, int64(r.Stats.PartialSkips), 10)
	b = append(b, `,"hops":`...)
	b = strconv.AppendInt(b, int64(r.Stats.Hops), 10)
	return append(b, "}}\n"...), ok
}

// appendFloatMap appends m as encoding/json does, keys in byte order:
// from keys when they name all of m's keys, else from m's own, quoted.
func appendFloatMap(b []byte, m map[string]float32, keys []jsonKey, ok *bool) []byte {
	start := len(b)
	b = append(b, '{')
	n := 0
	for _, k := range keys {
		if v, in := m[k.name]; in {
			if n > 0 {
				b = append(b, ',')
			}
			b = append(b, k.quoted...)
			b = append(b, ':')
			b = appendFloat(b, float64(v), 32, ok)
			n++
		}
	}
	if n == len(m) {
		return append(b, '}')
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	return appendFloatMap(b[:start], m, quoteKeys(names), ok)
}

// appendFloat formats f, a float of the given bits, as encoding/json
// does: shortest digits, 'e' notation below 1e-6 and from 1e21 on, with
// e-07 cut to e-7. A NaN or infinity, which encoding/json refuses,
// clears ok.
func appendFloat(b []byte, f float64, bits int, ok *bool) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		*ok = false
		return b
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (bits == 64 && (abs < 1e-6 || abs >= 1e21) ||
		bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21)) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, bits)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
