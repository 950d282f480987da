package must

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
)

// searchTop1 runs a k=3 search for the given vectors and returns the top
// match ID.
func searchTop1(t *testing.T, s Service, v NamedVectors) int64 {
	t.Helper()
	resp, err := s.Search(context.Background(), Query{Vectors: v, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) == 0 {
		t.Fatal("no matches")
	}
	return resp.Matches[0].ID
}

func TestEngineEnableQuantizationAfterBuild(t *testing.T) {
	e, rng := newBuiltEngine(t, 500)
	if e.Quantized() {
		t.Fatal("engine reports quantized before EnableQuantization")
	}
	if err := e.EnableQuantization(-1); err == nil {
		t.Fatal("negative rerankK accepted")
	}
	if err := e.EnableQuantization(0); err != nil {
		t.Fatal(err)
	}
	if !e.Quantized() {
		t.Fatal("engine not quantized after EnableQuantization")
	}
	// Enabling twice only updates the re-rank depth.
	if err := e.EnableQuantization(64); err != nil {
		t.Fatal(err)
	}
	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.QuantizedBytes <= 0 {
		t.Errorf("QuantizedBytes = %d, want > 0", st.QuantizedBytes)
	}
	if st.KernelVariant == "" {
		t.Error("KernelVariant empty")
	}

	// The quantized path must still land exact self-queries: insert a
	// fresh object after enabling (covers the post-build SyncSQ8 on
	// insert) and search for it.
	v := NamedVectors{
		"image": engRandVec(rng, engImgDim),
		"text":  engRandVec(rng, engTxtDim),
	}
	id, err := e.Insert(v)
	if err != nil {
		t.Fatal(err)
	}
	if got := searchTop1(t, e, v); got != id {
		t.Errorf("quantized self-query top match = %d, want %d", got, id)
	}
}

func TestEngineQuantizationBeforeBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	e, err := NewEngine(engSchema(), EngineOptions{Build: BuildOptions{Gamma: 12, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableQuantization(20); err != nil {
		t.Fatal(err)
	}
	var last NamedVectors
	for i := 0; i < 300; i++ {
		last = NamedVectors{
			"image": engRandVec(rng, engImgDim),
			"text":  engRandVec(rng, engTxtDim),
		}
		if _, err := e.Insert(last); err != nil {
			t.Fatal(err)
		}
	}
	// Pre-build inserts must not train the quantizer on a partial corpus;
	// Build does, via the pipeline's after-seal hook.
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.QuantizedBytes <= 0 {
		t.Errorf("QuantizedBytes = %d after quantized build, want > 0", st.QuantizedBytes)
	}
	if got := searchTop1(t, e, last); got != int64(e.Len()-1) {
		t.Errorf("quantized self-query top match = %d, want %d", got, e.Len()-1)
	}
}

func TestEngineQuantizedRebuild(t *testing.T) {
	e, rng := newBuiltEngine(t, 300)
	if err := e.EnableQuantization(0); err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 50; id++ {
		if err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if !e.Quantized() {
		t.Fatal("quantization lost across Rebuild")
	}
	st, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.QuantizedBytes <= 0 {
		t.Errorf("QuantizedBytes = %d after rebuild, want > 0", st.QuantizedBytes)
	}
	v := NamedVectors{
		"image": engRandVec(rng, engImgDim),
		"text":  engRandVec(rng, engTxtDim),
	}
	id, err := e.Insert(v)
	if err != nil {
		t.Fatal(err)
	}
	if got := searchTop1(t, e, v); got != id {
		t.Errorf("post-rebuild quantized self-query top match = %d, want %d", got, id)
	}
}

// TestEngineQuantizedPersistence checks the v5 collection block: a
// quantized engine's snapshot carries the trained SQ8 shadow and resumes
// quantized, while a non-quantized engine keeps writing the byte-stable
// v4 format.
func TestEngineQuantizedPersistence(t *testing.T) {
	e, rng := newBuiltEngine(t, 300)

	var plain bytes.Buffer
	if err := e.SaveTo(&plain); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(plain.Bytes(), clMagicV5[:]) {
		t.Fatal("non-quantized engine snapshot contains the v5 collection magic")
	}
	if !bytes.Contains(plain.Bytes(), []byte("MUSTCL4\n")) {
		t.Fatal("non-quantized engine snapshot lost the v4 collection magic")
	}

	if err := e.EnableQuantization(0); err != nil {
		t.Fatal(err)
	}
	var quant bytes.Buffer
	if err := e.SaveTo(&quant); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(quant.Bytes(), clMagicV5[:]) {
		t.Fatal("quantized engine snapshot does not contain the v5 collection magic")
	}

	e2, err := readEngineBytes(quant.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !e2.Quantized() {
		t.Fatal("restored engine not quantized")
	}
	st1, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	st2, err := e2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// The live store reports reserved chunk capacity; the restored one
	// adopts an exact-size code arena, so it may shrink — never grow.
	if st2.QuantizedBytes <= 0 || st2.QuantizedBytes > st1.QuantizedBytes {
		t.Errorf("restored QuantizedBytes = %d, want in (0, %d]", st2.QuantizedBytes, st1.QuantizedBytes)
	}

	// The restored engine must search identically: same codes, same
	// graph, same exact re-rank.
	for i := 0; i < 5; i++ {
		q := NamedVectors{
			"image": engRandVec(rng, engImgDim),
			"text":  engRandVec(rng, engTxtDim),
		}
		a, err := e.Search(context.Background(), Query{Vectors: q, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		b, err := e2.Search(context.Background(), Query{Vectors: q, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		for j := range a.Matches {
			if a.Matches[j].ID != b.Matches[j].ID || a.Matches[j].Similarity != b.Matches[j].Similarity {
				t.Fatalf("query %d result %d: (%d, %v) vs restored (%d, %v)",
					i, j, a.Matches[j].ID, a.Matches[j].Similarity, b.Matches[j].ID, b.Matches[j].Similarity)
			}
		}
	}
}

func TestShardedEngineQuantization(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s, err := NewShardedEngine(engSchema(), 3, EngineOptions{Build: BuildOptions{Gamma: 12, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := s.Insert(NamedVectors{
			"image": engRandVec(rng, engImgDim),
			"text":  engRandVec(rng, engTxtDim),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Build(); err != nil {
		t.Fatal(err)
	}
	if s.Quantized() {
		t.Fatal("sharded engine reports quantized before EnableQuantization")
	}
	if err := s.EnableQuantization(0); err != nil {
		t.Fatal(err)
	}
	if !s.Quantized() {
		t.Fatal("sharded engine not quantized after fan-out")
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.QuantizedBytes <= 0 {
		t.Errorf("aggregated QuantizedBytes = %d, want > 0", st.QuantizedBytes)
	}
	if st.KernelVariant == "" {
		t.Error("aggregated KernelVariant empty")
	}
	v := NamedVectors{
		"image": engRandVec(rng, engImgDim),
		"text":  engRandVec(rng, engTxtDim),
	}
	id, err := s.Insert(v)
	if err != nil {
		t.Fatal(err)
	}
	if got := searchTop1(t, s, v); got != id {
		t.Errorf("sharded quantized self-query top match = %d, want %d", got, id)
	}

	// Quantization survives a sharded snapshot/restore round trip.
	dir := t.TempDir()
	path := dir + "/sharded.must"
	if err := WriteSnapshot(s, path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadService(path)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Quantized() {
		t.Fatal("restored sharded engine not quantized")
	}
	if got := searchTop1(t, restored, v); got != id {
		t.Errorf("restored sharded self-query top match = %d, want %d", got, id)
	}
}
