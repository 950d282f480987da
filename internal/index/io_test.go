package index

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"must/internal/graph"
	"must/internal/vec"
)

// A MUSTIX2 round trip through Write must preserve an index that carries
// an incremental-insert overlay: Write folds the overlay into the file
// via a non-mutating snapshot (so it can run concurrently with searches
// under the engine's read lock), and the loaded graph must agree with
// the original edge-for-edge.
func TestV2RoundTripAfterInserts(t *testing.T) {
	objects := fixtureObjects(300, 44)
	w := vec.Weights{0.8, 0.5}
	f, err := BuildFusedStore(vec.FlatFromMulti(objects), w, graph.Ours(10, 3, 45))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(46))
	for i := 0; i < 12; i++ {
		id := f.Store.AppendMulti(vec.Multi{vec.RandUnit(rng, 16), vec.RandUnit(rng, 8)})
		if err := f.Insert(id, 10, 0); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if f.Graph.OverlayVertices() == 0 {
		t.Fatal("Write mutated the graph: overlay gone")
	}
	got, err := ReadFused(&buf, f.Store)
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph.NumVertices() != f.Graph.NumVertices() {
		t.Fatalf("vertex count: got %d want %d", got.Graph.NumVertices(), f.Graph.NumVertices())
	}
	for v := 0; v < f.Graph.NumVertices(); v++ {
		want := f.Graph.Neighbors(int32(v))
		have := got.Graph.Neighbors(int32(v))
		if len(want) != len(have) {
			t.Fatalf("vertex %d degree mismatch", v)
		}
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("vertex %d adjacency mismatch", v)
			}
		}
	}
}

// corruptCase mutates valid MUSTIX2 bytes into a specific corruption.
func v2Bytes(t *testing.T, n int, seed int64) ([]byte, *Fused) {
	t.Helper()
	objects := fixtureObjects(n, seed)
	f, err := BuildFusedStore(vec.FlatFromMulti(objects), vec.Weights{0.8, 0.5}, graph.Ours(8, 2, seed))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), f
}

// headerLen locates the offset of the CSR offsets block in a MUSTIX2
// stream (magic + pipeline + weights + nv + seed).
func v2TopologyStart(f *Fused) int {
	return 8 + 4 + len(f.Pipeline) + 4 + 4*len(f.Weights) + 4 + 4
}

// Corrupt MUSTIX2 streams must fail with errors, not panics or huge
// allocations — mirroring the v4 collection corrupt-header bound test.
func TestV2CorruptHeaderBounds(t *testing.T) {
	raw, f := v2Bytes(t, 120, 47)
	top := v2TopologyStart(f)
	le := binary.LittleEndian

	t.Run("truncated-offsets", func(t *testing.T) {
		if _, err := ReadFused(bytes.NewReader(raw[:top+10]), f.Store); err == nil {
			t.Error("truncated offsets block did not error")
		}
	})
	t.Run("decreasing-offsets", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		// offsets[1] and offsets[2] swapped out of order.
		le.PutUint32(bad[top+4:], 1<<30)
		if _, err := ReadFused(bytes.NewReader(bad), f.Store); err == nil || !strings.Contains(err.Error(), "out of range") && !strings.Contains(err.Error(), "decrease") {
			t.Errorf("corrupt offsets error = %v", err)
		}
	})
	t.Run("edge-out-of-range", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		nv := f.Graph.NumVertices()
		edgeStart := top + 4*(nv+1)
		le.PutUint32(bad[edgeStart:], uint32(nv)+7)
		if _, err := ReadFused(bytes.NewReader(bad), f.Store); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("out-of-range edge error = %v", err)
		}
	})
	t.Run("absurd-edge-count-truncated-stream", func(t *testing.T) {
		// A lying terminator claims ~n² edges; the loader must fail with an
		// I/O error once the stream runs dry instead of pre-committing the
		// claimed allocation (per-vertex degree is bounded by nv, so the
		// largest credible claim is nv² — the chunked reader never allocates
		// ahead of delivered bytes).
		bad := append([]byte(nil), raw[:top+4*(f.Graph.NumVertices()+1)]...)
		nv := uint32(f.Graph.NumVertices())
		// Rewrite offsets as a maximal valid ramp: offsets[v] = v*nv.
		for v := uint32(0); v <= nv; v++ {
			le.PutUint32(bad[top+int(4*v):], v*nv)
		}
		if _, err := ReadFused(bytes.NewReader(bad), f.Store); err == nil {
			t.Error("absurd edge count with truncated stream did not error")
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[6] = '9'
		if _, err := ReadFused(bytes.NewReader(bad), f.Store); err == nil || !strings.Contains(err.Error(), "bad magic") {
			t.Errorf("bad magic error = %v", err)
		}
	})
}
