// Package baseline implements the paper's two baselines (§III): MR
// (multi-streamed retrieval — one index and one search per modality, with
// candidate merging) and JE (joint embedding — a single composition vector
// searched against the target-modality index), plus their brute-force
// variants MR-- used in the §VIII-D efficiency study.
package baseline

import (
	"fmt"
	"sort"

	"must/internal/graph"
	"must/internal/index"
	"must/internal/search"
	"must/internal/vec"
)

// JE is the joint-embedding baseline: the multimodal query is fused into
// one composition vector (done at encoding time: the query's modality-0
// vector is Φ(q0,...,q_{t-1})) and searched against the index over
// {ϕ0(o0)}.
type JE struct {
	idx *index.Fused
}

// BuildJE indexes the target-modality vectors of objects.
func BuildJE(objects []vec.Multi, p graph.Pipeline) (*JE, error) {
	idx, err := index.BuildFusedStore(modalityStore(objects, 0), vec.Weights{1}, p)
	if err != nil {
		return nil, fmt.Errorf("baseline: building JE index: %w", err)
	}
	return &JE{idx: idx}, nil
}

// Index exposes the underlying fused index (for size/build-time reports).
func (j *JE) Index() *index.Fused { return j.idx }

// NewSearcher returns a single-goroutine JE searcher.
func (j *JE) NewSearcher() *JESearcher {
	return &JESearcher{s: j.idx.NewSearcher()}
}

// JESearcher runs JE queries; not safe for concurrent use.
type JESearcher struct {
	s *search.Searcher
}

// Search returns the top-k object IDs for the query. Only the query's
// modality-0 vector (the composition vector) is used.
func (js *JESearcher) Search(query vec.Multi, k, l int) ([]int, error) {
	res, _, err := js.s.Search(vec.Multi{query[0]}, k, l)
	if err != nil {
		return nil, err
	}
	return search.IDs(res), nil
}

// modalityStore packs modality m of every object into its own
// single-modality store — what one MR stream (or JE's target-modality
// index) builds over and scores against.
func modalityStore(objects []vec.Multi, m int) *vec.FlatStore {
	return vec.FlatFromMulti(search.ModalityView(objects, m))
}

// MR is the multi-streamed retrieval baseline: one proximity-graph index
// per modality, one search per query modality, and a merge of the
// candidate sets (§III, Baseline 1).
type MR struct {
	indexes []*index.Fused
}

// BuildMR indexes every modality of objects separately.
func BuildMR(objects []vec.Multi, p graph.Pipeline) (*MR, error) {
	if len(objects) == 0 {
		return nil, fmt.Errorf("baseline: no objects")
	}
	m := len(objects[0])
	mr := &MR{indexes: make([]*index.Fused, m)}
	for i := 0; i < m; i++ {
		sub := p
		sub.Name = fmt.Sprintf("%s/mod%d", p.Name, i)
		idx, err := index.BuildFusedStore(modalityStore(objects, i), vec.Weights{1}, sub)
		if err != nil {
			return nil, fmt.Errorf("baseline: building MR index %d: %w", i, err)
		}
		mr.indexes[i] = idx
	}
	return mr, nil
}

// Indexes exposes the per-modality indexes (for size/build-time reports).
func (m *MR) Indexes() []*index.Fused { return m.indexes }

// BuildTime sums the per-modality build times.
func (m *MR) BuildTime() (total int64) {
	for _, idx := range m.indexes {
		total += int64(idx.BuildTime)
	}
	return total
}

// SizeBytes sums the per-modality index sizes.
func (m *MR) SizeBytes() (total int64) {
	for _, idx := range m.indexes {
		total += idx.SizeBytes()
	}
	return total
}

// NewSearcher returns a single-goroutine MR searcher.
func (m *MR) NewSearcher() *MRSearcher {
	searchers := make([]*search.Searcher, len(m.indexes))
	for i, idx := range m.indexes {
		searchers[i] = idx.NewSearcher()
	}
	return &MRSearcher{searchers: searchers}
}

// MRSearcher runs MR queries; not safe for concurrent use.
type MRSearcher struct {
	searchers []*search.Searcher
}

// Search retrieves l candidates from every modality stream and merges
// them: the intersection of the streams ranked by summed per-stream rank
// (Borda fusion), padded from the union when the intersection is smaller
// than k — the paper's intersection merge with the importance of streams
// unknown (§III).
func (ms *MRSearcher) Search(query vec.Multi, k, l int) ([]int, error) {
	if len(query) != len(ms.searchers) {
		return nil, fmt.Errorf("baseline: query has %d modalities, MR has %d indexes", len(query), len(ms.searchers))
	}
	t := len(ms.searchers)
	// rank[id] collects per-stream ranks; streams[id] counts how many
	// streams returned id.
	type entry struct {
		streams  int
		rankSum  int
		bestRank int
	}
	merged := make(map[int]*entry)
	for i, s := range ms.searchers {
		res, _, err := s.Search(vec.Multi{query[i]}, l, l)
		if err != nil {
			return nil, err
		}
		for rank, r := range res {
			e := merged[r.ID]
			if e == nil {
				e = &entry{bestRank: rank}
				merged[r.ID] = e
			}
			e.streams++
			e.rankSum += rank
			if rank < e.bestRank {
				e.bestRank = rank
			}
		}
	}
	type cand struct {
		id int
		e  *entry
	}
	cands := make([]cand, 0, len(merged))
	for id, e := range merged {
		// Missing streams contribute the worst possible rank l.
		e.rankSum += (t - e.streams) * l
		cands = append(cands, cand{id, e})
	}
	// Intersection first (present in all streams), then by rank sum; ties
	// by id for determinism.
	sort.Slice(cands, func(i, j int) bool {
		ci, cj := cands[i], cands[j]
		iFull, jFull := ci.e.streams == t, cj.e.streams == t
		if iFull != jFull {
			return iFull
		}
		if ci.e.rankSum != cj.e.rankSum {
			return ci.e.rankSum < cj.e.rankSum
		}
		return ci.id < cj.id
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.id
	}
	return out, nil
}

// MRBrute is MR-- : exact per-modality scans with the same merge.
type MRBrute struct {
	brutes []*index.BruteForce
}

// NewMRBrute builds the exact multi-streamed baseline.
func NewMRBrute(objects []vec.Multi) *MRBrute {
	if len(objects) == 0 {
		return &MRBrute{}
	}
	m := len(objects[0])
	b := &MRBrute{brutes: make([]*index.BruteForce, m)}
	for i := 0; i < m; i++ {
		b.brutes[i] = &index.BruteForce{Store: modalityStore(objects, i), Weights: vec.Weights{1}}
	}
	return b
}

// Search mirrors MRSearcher.Search with exact per-stream retrieval.
func (b *MRBrute) Search(query vec.Multi, k, l int) ([]int, error) {
	if len(query) != len(b.brutes) {
		return nil, fmt.Errorf("baseline: query has %d modalities, MR-- has %d scanners", len(query), len(b.brutes))
	}
	t := len(b.brutes)
	type entry struct {
		streams int
		rankSum int
	}
	merged := make(map[int]*entry)
	for i, bf := range b.brutes {
		res := bf.TopK(vec.Multi{query[i]}, l)
		for rank, r := range res {
			e := merged[r.ID]
			if e == nil {
				e = &entry{}
				merged[r.ID] = e
			}
			e.streams++
			e.rankSum += rank
		}
	}
	type cand struct {
		id int
		e  *entry
	}
	cands := make([]cand, 0, len(merged))
	for id, e := range merged {
		e.rankSum += (t - e.streams) * l
		cands = append(cands, cand{id, e})
	}
	sort.Slice(cands, func(i, j int) bool {
		ci, cj := cands[i], cands[j]
		iFull, jFull := ci.e.streams == t, cj.e.streams == t
		if iFull != jFull {
			return iFull
		}
		if ci.e.rankSum != cj.e.rankSum {
			return ci.e.rankSum < cj.e.rankSum
		}
		return ci.id < cj.id
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.id
	}
	return out, nil
}
