package server

import (
	"encoding/json"
	"net/http"
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
