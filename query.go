package must

import (
	"fmt"
	"time"
)

// Modality declares one named modality of a Schema.
type Modality struct {
	// Name addresses the modality in queries ("image", "text", ...).
	Name string
	// Dim is the embedding dimension of the modality's vectors.
	Dim int
}

// Schema declares an Engine's modality layout. Schema[0] is the target
// modality (the modality of the objects being retrieved, §III of the
// paper); the rest are auxiliary modalities.
type Schema []Modality

// maxModalityNameLen bounds modality names so the persistence formats
// can reject corrupt length prefixes on load; Validate and the writers
// enforce the same limit.
const maxModalityNameLen = 1 << 10

// Validate checks that the schema is non-empty with unique, non-empty
// names and positive dimensions.
func (s Schema) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("must: schema has no modalities")
	}
	seen := make(map[string]bool, len(s))
	for i, m := range s {
		if m.Name == "" {
			return fmt.Errorf("must: schema modality %d has an empty name", i)
		}
		if len(m.Name) > maxModalityNameLen {
			return fmt.Errorf("must: schema modality %d name exceeds %d bytes", i, maxModalityNameLen)
		}
		if seen[m.Name] {
			return fmt.Errorf("must: schema modality name %q repeated", m.Name)
		}
		seen[m.Name] = true
		if m.Dim <= 0 {
			return fmt.Errorf("must: schema modality %q has dim %d", m.Name, m.Dim)
		}
	}
	return nil
}

// Dims returns the per-modality dimensions in schema order.
func (s Schema) Dims() []int {
	out := make([]int, len(s))
	for i, m := range s {
		out[i] = m.Dim
	}
	return out
}

// Names returns the modality names in schema order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, m := range s {
		out[i] = m.Name
	}
	return out
}

// Index returns the position of the named modality, or false if the
// schema has no modality with that name.
func (s Schema) Index(name string) (int, bool) {
	for i, m := range s {
		if m.Name == name {
			return i, true
		}
	}
	return 0, false
}

// NamedVectors maps modality names to embedding vectors. Modalities
// absent from the map are missing (the t ≠ m case of §VII-B).
type NamedVectors map[string][]float32

// Query is one multimodal search request against an Engine.
//
// The zero value of every optional field means "default": K=10,
// L=max(4K,100), engine weights, no filter, no early termination,
// Lemma 4 optimization on.
type Query struct {
	// Vectors holds the query's embedding vectors by modality name.
	// Modalities absent from the map are treated as missing: their
	// weight is forced to zero for this query (§VII-B), so they neither
	// contribute to similarity nor steer routing.
	Vectors NamedVectors
	// K is the number of results to return (default 10).
	K int
	// L is the result-set size l of Algorithm 2 (default max(4K, 100));
	// larger L trades speed for recall (Tab. XII).
	L int
	// Weights optionally overrides the engine's per-modality weights ω_i
	// by name — the user-defined weight preference of §VIII-F (Tab. IX).
	// Unnamed modalities keep the engine weight; modalities with no
	// vector in Vectors are forced to zero regardless.
	Weights map[string]float32
	// Filter restricts results to objects it accepts — the hybrid
	// vector-plus-constraint query setting of §III. It receives Engine
	// object IDs. Rejected objects still route; raise L when the filter
	// is selective. The callback runs while the engine holds its read
	// lock, so it must not call Engine methods (that can deadlock
	// against a concurrent writer); capture any needed engine state
	// before searching.
	Filter func(id int64) bool
	// Patience enables adaptive early termination: stop routing after
	// this many consecutive non-improving hops (0 = full Algorithm 2).
	Patience int
	// DisableOptimization turns off the Lemma 4 partial-IP early
	// termination.
	DisableOptimization bool
}

// size resolves the result count k and beam width l, applying the
// defaults K = 10 and L = max(4K, 100). Graph and exhaustive search both
// resolve through it, so they agree on defaults and reject the same K.
func (q Query) size() (k, l int, err error) {
	k = q.K
	if k == 0 {
		k = 10
	}
	if k < 0 {
		return 0, 0, fmt.Errorf("must: k must be positive, got %d", k)
	}
	l = q.L
	if l == 0 {
		l = max(4*k, 100)
	}
	return k, l, nil
}

// SearchStats reports the work one search performed.
type SearchStats struct {
	// FullEvals counts candidates whose joint IP was computed across all
	// modalities.
	FullEvals int
	// PartialSkips counts candidates discarded early by the Lemma 4
	// bound before all modalities were scanned.
	PartialSkips int
	// Hops counts the vertices expanded by greedy routing.
	Hops int
}

// ScoredMatch is one Engine search result with its similarity breakdown.
type ScoredMatch struct {
	// ID is the Engine object ID (stable across Rebuild).
	ID int64
	// Similarity is the joint similarity Σ ω_i²·IP_i to the query under
	// the weights in effect (Lemma 1).
	Similarity float32
	// ByModality decomposes Similarity into the per-modality
	// contributions ω_i²·IP_i, keyed by modality name. Modalities with a
	// zero effective weight (including missing query modalities)
	// contribute 0. The values sum to Similarity up to float rounding.
	ByModality map[string]float32
}

// Response is the result of one Engine search.
type Response struct {
	// Matches are the approximate top-K objects, best first.
	Matches []ScoredMatch
	// Stats reports the routing work performed.
	Stats SearchStats
	// Latency is the wall-clock time the search took, including
	// validation and result assembly.
	Latency time.Duration
	// Partial reports a degraded sharded search: at least one shard
	// answered and at least one failed (error, panic, or deadline), so
	// Matches cover only part of the corpus. A single Engine never sets
	// it, and a sharded search where every shard fails returns an error
	// instead of a partial Response.
	Partial bool
	// ShardErrors lists what went wrong on each failed shard when
	// Partial is set.
	ShardErrors []ShardError
}

// ShardError describes one shard's failure within a degraded fan-out.
type ShardError struct {
	// Shard is the failing shard's index.
	Shard int `json:"shard"`
	// Err is the failure rendered as text (JSON-friendly: responses
	// cross the serving boundary).
	Err string `json:"error"`
}
