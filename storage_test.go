package must

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
)

// The acceptance property of the single-store architecture: a built index
// holds the corpus once. CorpusBytes stays within ~1.2× of the raw vector
// payload (arena slack is at most one overflow chunk) and the transient
// fused build buffer is gone by the time Build returns.
func TestSingleCopyAccounting(t *testing.T) {
	e, _, _ := buildCorpus(t, 2000, 10, 70, BuildOptions{Gamma: 12, Seed: 71})
	stats := func() Stats {
		t.Helper()
		st, err := e.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := stats()
	if st.RawVectorBytes != int64(e.Len())*(24+12)*4 {
		t.Fatalf("raw payload = %d bytes, want %d", st.RawVectorBytes, e.Len()*(24+12)*4)
	}
	if st.CorpusBytes < st.RawVectorBytes {
		t.Fatalf("corpus bytes %d below raw payload %d — accounting broken", st.CorpusBytes, st.RawVectorBytes)
	}
	if ratio := float64(st.CorpusBytes) / float64(st.RawVectorBytes); ratio > 1.2 {
		t.Fatalf("corpus bytes %.2f× raw payload, want ≤ 1.2× (single copy)", ratio)
	}
	if st.FusedBytes != 0 {
		t.Fatalf("fused build buffer still resident after Build: %d bytes", st.FusedBytes)
	}
	// Inserts keep the property: rows append to the same store.
	rng := rand.New(rand.NewSource(72))
	for i := 0; i < 200; i++ {
		if _, err := e.InsertObject(Object{randVec(rng, 24), randVec(rng, 12)}); err != nil {
			t.Fatal(err)
		}
	}
	st = stats()
	if ratio := float64(st.CorpusBytes) / float64(st.RawVectorBytes); ratio > 1.2 {
		t.Fatalf("after inserts: corpus bytes %.2f× raw payload, want ≤ 1.2×", ratio)
	}
	if st.FusedBytes != 0 {
		t.Fatalf("inserts resurrected a fused buffer: %d bytes", st.FusedBytes)
	}
}

// Regression for the arena-trust gap: a loaded collection used to drop to
// a slow path as soon as an insert appended past the loaded arena,
// silently re-copying the corpus for search. With the growable arena the
// loaded store simply grows: load, append, and search all share one store
// with no re-copy.
func TestLoadAppendSearchSharesOneStore(t *testing.T) {
	e, queries, _ := buildCorpus(t, 300, 5, 73, BuildOptions{Gamma: 12, Seed: 74})
	var buf bytes.Buffer
	if err := e.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := readEngineBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if e2.parts[0].f.Store != e2.parts[0].c.store {
		t.Fatal("loaded index does not share the collection's store")
	}
	rowBefore := &e2.parts[0].c.store.Row(0)[0]

	// Append past the loaded arena — the step that used to lose the store.
	rng := rand.New(rand.NewSource(75))
	target := randVec(rng, 24)
	aux := randVec(rng, 12)
	id, err := e2.InsertObject(Object{target, aux})
	if err != nil {
		t.Fatal(err)
	}

	if e2.parts[0].f.Store != e2.parts[0].c.store {
		t.Fatal("append split the index store from the collection store")
	}
	if &e2.parts[0].c.store.Row(0)[0] != rowBefore {
		t.Fatal("append moved the loaded arena (re-copy)")
	}
	if st, err := e2.Stats(); err != nil || st.FusedBytes != 0 {
		t.Fatalf("insert after load materialized a fused buffer: %+v, %v", st, err)
	}

	// The appended object must be reachable by search...
	if !slices.Contains(searchIDs(t, e2, corpusQuery(Object{target, aux}, 5, 200)), id) {
		t.Fatalf("appended object %d not found by search", id)
	}
	// ...and old queries must still answer through the grown store.
	for _, q := range queries {
		searchIDs(t, e2, corpusQuery(q, 5, 100))
	}
}

// Full lifecycle over the shared store: build → save (v4) → load →
// insert → delete → rebuild → search. CI runs this under -race; the
// engine's locking plus the store's append-only arena make the whole
// sequence safe while searches run concurrently.
func TestEngineLifecycleSharedStore(t *testing.T) {
	schema := Schema{{Name: "image", Dim: 24}, {Name: "text", Dim: 12}}
	e, err := NewEngine(schema, EngineOptions{Build: BuildOptions{Gamma: 12, Seed: 76}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	obj := func() NamedVectors {
		return NamedVectors{"image": randVec(rng, 24), "text": randVec(rng, 12)}
	}
	ids := make([]int64, 0, 400)
	for i := 0; i < 400; i++ {
		id, err := e.Insert(obj())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "engine.bin")
	if err := WriteSnapshot(e, path); err != nil {
		t.Fatal(err)
	}
	e2, err := LoadEngine(path)
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent searches throughout the mutation sequence (-race).
	ctx := context.Background()
	stop := make(chan struct{})
	done := make(chan error)
	go func() {
		q := Query{Vectors: NamedVectors{"image": randVec(rand.New(rand.NewSource(78)), 24)}, K: 5}
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
				if _, err := e2.Search(ctx, q); err != nil {
					done <- err
					return
				}
			}
		}
	}()

	for i := 0; i < 100; i++ {
		if _, err := e2.Insert(obj()); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids[:150] {
		if err := e2.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := e2.Rebuild(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if got := e2.Len(); got != 400+100-150 {
		t.Fatalf("live objects = %d, want %d", got, 400+100-150)
	}
	// Deleted objects stay gone; survivors remain retrievable by ID.
	if _, err := e2.Object(ids[0]); err == nil {
		t.Error("deleted object still retrievable after rebuild")
	}
	if _, err := e2.Object(ids[200]); err != nil {
		t.Errorf("surviving object lost: %v", err)
	}
	resp, err := e2.Search(ctx, Query{Vectors: NamedVectors{"image": randVec(rng, 24), "text": randVec(rng, 12)}, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) == 0 {
		t.Fatal("post-rebuild search returned nothing")
	}
	for _, m := range resp.Matches {
		for _, dead := range ids[:150] {
			if m.ID == dead {
				t.Fatalf("deleted object %d returned after rebuild", m.ID)
			}
		}
	}
	// The rebuilt engine is still single-copy.
	st, err := e2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.FusedBytes != 0 {
		t.Fatalf("rebuild left a fused buffer: %d bytes", st.FusedBytes)
	}
	if ratio := float64(st.CorpusBytes) / float64(st.RawVectorBytes); ratio > 1.2 {
		t.Fatalf("rebuilt corpus %.2f× raw payload, want ≤ 1.2×", ratio)
	}
}

// Engine save → load must round-trip through the v4 arena dump and come
// back single-copy: the loaded collection store and the loaded index
// store are the same object.
func TestEngineRoundTripSingleCopy(t *testing.T) {
	schema := Schema{{Name: "a", Dim: 16}, {Name: "b", Dim: 8}}
	e, err := NewEngine(schema, EngineOptions{Build: BuildOptions{Gamma: 10, Seed: 79}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(80))
	for i := 0; i < 200; i++ {
		if _, err := e.Insert(NamedVectors{"a": randVec(rng, 16), "b": randVec(rng, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "e.bin")
	if err := WriteSnapshot(e, path); err != nil {
		t.Fatal(err)
	}
	e2, err := LoadEngine(path)
	if err != nil {
		t.Fatal(err)
	}
	if e2.parts[0].f.Store != e2.parts[0].c.store {
		t.Fatal("loaded engine index and collection do not share one store")
	}
	st, err := e2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.CorpusBytes != st.RawVectorBytes {
		t.Fatalf("loaded corpus %d bytes, want exactly the raw payload %d (adopted arena)",
			st.CorpusBytes, st.RawVectorBytes)
	}
	if st.FusedBytes != 0 {
		t.Fatalf("loaded engine holds a fused buffer: %d bytes", st.FusedBytes)
	}
	// And both engines answer identically.
	q := Query{Vectors: NamedVectors{"a": randVec(rng, 16), "b": randVec(rng, 8)}, K: 5}
	ra, err := e.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := e2.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(matchIDs(ra)) != fmt.Sprint(matchIDs(rb)) {
		t.Fatalf("loaded engine searches differently: %v vs %v", matchIDs(ra), matchIDs(rb))
	}
}

func matchIDs(r *Response) []int64 {
	out := make([]int64, len(r.Matches))
	for i, m := range r.Matches {
		out[i] = m.ID
	}
	return out
}
