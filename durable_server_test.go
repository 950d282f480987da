package must_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"must"
	"must/internal/faultfs"
	"must/internal/server"
)

// A WAL failure is the server's fault: once an fsync has failed, mustd's
// write endpoints answer 503 — not the 400/404/409 that blame the
// request — searches keep serving, and /v1/stats and /metrics say why.
func TestServerAnswersWALFailureWith503(t *testing.T) {
	schema := must.Schema{{Name: "image", Dim: 8}, {Name: "text", Dim: 6}}
	eng, err := must.NewEngine(schema, must.EngineOptions{Build: must.BuildOptions{Gamma: 8, Seed: 42}})
	if err != nil {
		t.Fatal(err)
	}
	ffs := faultfs.Wrap(faultfs.OS)
	ds, err := must.OpenDurableFS(eng, filepath.Join(t.TempDir(), "wal"), ffs)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	srv := server.New(ds, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	rng := rand.New(rand.NewSource(3))
	object := func() map[string][]float32 {
		o := map[string][]float32{}
		for _, m := range schema {
			v := make([]float32, m.Dim)
			for i := range v {
				v[i] = float32(rng.NormFloat64())
			}
			o[m.Name] = v
		}
		return o
	}
	post := func(path string, body any) (int, string) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return string(data)
	}

	var objects []map[string][]float32
	for i := 0; i < 20; i++ {
		objects = append(objects, object())
	}
	if code, body := post("/v1/insert", server.InsertRequest{Objects: objects}); code != http.StatusOK {
		t.Fatalf("healthy insert: %d %s", code, body)
	}
	if code, body := post("/v1/rebuild", struct{}{}); code != http.StatusOK {
		t.Fatalf("healthy rebuild: %d %s", code, body)
	}

	ffs.Inject(faultfs.Fault{Op: faultfs.OpSync, PathContains: ".seg", Err: errors.New("disk gone")})
	for _, tc := range []struct {
		name, path string
		body       any
	}{
		{"the insert that hit the failed fsync", "/v1/insert", server.InsertRequest{Vectors: object()}},
		{"a later insert", "/v1/insert", server.InsertRequest{Vectors: object()}},
		{"a delete", "/v1/delete", server.DeleteRequest{IDs: []int64{0}}},
		{"a rebuild", "/v1/rebuild", struct{}{}},
	} {
		code, body := post(tc.path, tc.body)
		if code != http.StatusServiceUnavailable || !strings.Contains(body, "wal append failed") {
			t.Errorf("%s: %d %s, want 503 naming the WAL failure", tc.name, code, body)
		}
	}
	if code, body := post("/v1/search", server.SearchRequest{Vectors: objects[0], K: 3}); code != http.StatusOK {
		t.Errorf("search on a poisoned service: %d %s, want 200", code, body)
	}
	if stats := get("/v1/stats"); !strings.Contains(stats, `"poisoned":true`) {
		t.Errorf("/v1/stats does not report the poisoned WAL: %s", stats)
	}
	if metrics := get("/metrics"); !strings.Contains(metrics, "must_wal_poisoned 1\n") {
		t.Error("/metrics does not report must_wal_poisoned 1")
	}
}

// Two /v1/rebuild requests racing on an unbuilt server both succeed, and
// exactly one reports the first build: the engine decides Build against
// Rebuild under its own build lock. Durably, the refused Build logs
// nothing, so the log holds the inserts and two rebuild records, and a
// replay reproduces the engine.
func TestConcurrentRebuildRequests(t *testing.T) {
	schema := must.Schema{{Name: "image", Dim: 8}, {Name: "text", Dim: 6}}
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			newEngine := func() *must.Engine {
				eng, err := must.NewShardedEngine(schema, 2, must.EngineOptions{Build: must.BuildOptions{Gamma: 8, Seed: 42}})
				if err != nil {
					t.Fatal(err)
				}
				return eng
			}
			var svc must.Service = newEngine()
			dir := filepath.Join(t.TempDir(), "wal")
			var ds *must.DurableService
			if durable {
				var err error
				if ds, _, err = must.OpenDurable(svc, dir, must.DurableOptions{}); err != nil {
					t.Fatal(err)
				}
				svc = ds
			}
			srv := server.New(svc, server.Config{})
			ts := httptest.NewServer(srv.Handler())
			defer func() {
				ts.Close()
				srv.Close()
			}()

			rng := rand.New(rand.NewSource(8))
			const n = 400
			for i := 0; i < n; i++ {
				o := must.NamedVectors{}
				for _, m := range schema {
					v := make([]float32, m.Dim)
					for d := range v {
						v[d] = float32(rng.NormFloat64())
					}
					o[m.Name] = v
				}
				if _, err := svc.Insert(o); err != nil {
					t.Fatal(err)
				}
			}

			start := make(chan struct{})
			replies := make(chan server.RebuildResponse, 2)
			errs := make(chan error, 2)
			for range 2 {
				go func() {
					<-start
					resp, err := http.Post(ts.URL+"/v1/rebuild", "application/json", strings.NewReader("{}"))
					if err != nil {
						errs <- err
						return
					}
					defer resp.Body.Close()
					body, _ := io.ReadAll(resp.Body)
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("rebuild: %d %s", resp.StatusCode, body)
						return
					}
					var rr server.RebuildResponse
					if err := json.Unmarshal(body, &rr); err != nil {
						errs <- err
						return
					}
					replies <- rr
				}()
			}
			close(start)
			built := 0
			for range 2 {
				select {
				case err := <-errs:
					t.Fatal(err)
				case rr := <-replies:
					if rr.Built {
						built++
					}
					if rr.Objects != n {
						t.Errorf("rebuild reply counts %d objects, want %d", rr.Objects, n)
					}
				}
			}
			if built != 1 {
				t.Fatalf("%d of 2 concurrent rebuild replies say built:true, want exactly 1", built)
			}
			if !durable {
				return
			}

			if got, want := ds.WALStats().Records, uint64(n+2); got != want {
				t.Fatalf("wal holds %d records, want %d (inserts + one build + one rebuild)", got, want)
			}
			epoch := ds.Epoch()
			if err := ds.Close(); err != nil {
				t.Fatal(err)
			}
			replayedEng := newEngine()
			rs, replayed, err := must.OpenDurable(replayedEng, dir, must.DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			if replayed != n+2 || replayedEng.Epoch() != epoch || replayedEng.Len() != n {
				t.Fatalf("replay: %d records, epoch %d, %d objects; want %d, %d, %d",
					replayed, replayedEng.Epoch(), replayedEng.Len(), n+2, epoch, n)
			}
			if _, err := replayedEng.Stats(); err != nil {
				t.Fatalf("replayed engine is not built: %v", err)
			}
		})
	}
}
