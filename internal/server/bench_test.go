package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"must"
)

// benchFixture is built once and shared by every sub-benchmark so graph
// construction does not pollute timings.
var (
	benchOnce    sync.Once
	benchEng     *must.Engine
	benchQueries []must.Query
)

func benchSetup(b *testing.B) (*must.Engine, []must.Query) {
	b.Helper()
	benchOnce.Do(func() {
		benchEng, benchQueries, _ = testEngine(b, 2000)
	})
	return benchEng, benchQueries
}

// BenchmarkServePipeline measures the serving hot path at high offered
// concurrency, on the 24+12-dim test fixture and on the 512+256-dim
// clipFixture: direct is one engine call per request, with nothing
// bounding how many run at once; served takes one of the handler's
// GOMAXPROCS engine slots and then calls Search, exactly as mustd serves
// a search. ns/op is per served query.
func BenchmarkServePipeline(b *testing.B) {
	eng, queries := benchSetup(b)
	clip, _ := clipSetup(b)
	clipQueries := make([]must.Query, 64)
	for i := range clipQueries {
		o, err := clip.Object(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		clipQueries[i] = must.Query{Vectors: o, K: 10, L: 160}
	}
	for _, fx := range []struct {
		name    string
		eng     *must.Engine
		queries []must.Query
	}{{"24+12", eng, queries}, {"512+256", clip, clipQueries}} {
		s := New(fx.eng, Config{})
		for _, path := range []struct {
			name   string
			search func(must.Query) error
		}{
			{"direct", func(q must.Query) error {
				_, err := fx.eng.Search(context.Background(), q)
				return err
			}},
			{"served", func(q must.Query) error {
				_, _, err := s.search(context.Background(), q)
				return err
			}},
		} {
			b.Run(fx.name+"/"+path.name, func(b *testing.B) {
				b.SetParallelism(64)
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					i := 0
					for pb.Next() {
						q := fx.queries[i%len(fx.queries)]
						i++
						if err := path.search(q); err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	}
}

// clipFixture is a small engine on the CLIP-scale schema of the ladder
// (image:512,text:256) and one search body for it as json.Marshal
// writes it, ~10 KB: request decode cost scales with the embedding
// dimension, not with the corpus, so 256 objects are enough.
var (
	clipOnce   sync.Once
	clipEng    *must.Engine
	clipBody   []byte
	clipPyBody []byte // the same search as json.dumps writes it from numpy
)

func clipSetup(b *testing.B) (*must.Engine, []byte) {
	b.Helper()
	clipOnce.Do(func() {
		rng := rand.New(rand.NewSource(7))
		eng, err := must.NewEngine(must.Schema{
			{Name: "image", Dim: 512},
			{Name: "text", Dim: 256},
		}, must.EngineOptions{Build: must.BuildOptions{Gamma: 12, Seed: 5}})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 256; i++ {
			if _, err := eng.Insert(must.NamedVectors{"image": randVec(rng, 512), "text": randVec(rng, 256)}); err != nil {
				b.Fatal(err)
			}
		}
		if err := eng.Build(); err != nil {
			b.Fatal(err)
		}
		q, err := eng.Object(3)
		if err != nil {
			b.Fatal(err)
		}
		clipEng = eng
		if clipBody, err = json.Marshal(SearchRequest{Vectors: q, K: 10, L: 160}); err != nil {
			b.Fatal(err)
		}
		// json.dumps({"vectors": {m: v.tolist()}, ...}): each float32 as
		// the repr of its float64, mostly 16–17 significant digits.
		py := []byte(`{"vectors": {`)
		for i, name := range []string{"image", "text"} {
			if i > 0 {
				py = append(py, ", "...)
			}
			py = append(py, `"`+name+`": [`...)
			for j, x := range q[name] {
				if j > 0 {
					py = append(py, ", "...)
				}
				py = append(py, pythonRepr(float64(x))...)
			}
			py = append(py, ']')
		}
		clipPyBody = append(py, `}, "k": 10, "l": 160}`...)
	})
	return clipEng, clipBody
}

// BenchmarkDecodeSearchRequest is the parse alone, on a body already in
// memory: the fast scan of a json.Marshal body and of a Python json.dumps
// body, against the encoding/json decoder it falls back to.
func BenchmarkDecodeSearchRequest(b *testing.B) {
	_, body := clipSetup(b)
	for _, tc := range []struct {
		name string
		body []byte
	}{{"fast", body}, {"fast-python", clipPyBody}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(tc.body)))
			for b.Loop() {
				if _, ok := scanSearch(tc.body); !ok {
					b.Fatal("fast scan declined a client body")
				}
			}
		})
	}
	b.Run("std", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			var req SearchRequest
			if err := decodeStd(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHandleSearch is one /v1/search through the whole handler
// stack on a recorder (no socket): hit is answered from the result
// cache, so it is body read + cache lookup + response encode; miss has
// the cache disabled and adds the decode, an engine slot and the engine.
func BenchmarkHandleSearch(b *testing.B) {
	eng, body := clipSetup(b)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"hit", Config{}},
		{"miss", Config{CacheSize: -1}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := New(eng, tc.cfg)
			defer s.Close()
			h := s.Handler()
			serve := func() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("search: %d %s", rec.Code, rec.Body)
				}
			}
			serve() // fills the cache for hit
			b.ReportAllocs()
			for b.Loop() {
				serve()
			}
		})
	}
}
