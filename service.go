package must

import (
	"context"
	"errors"
	"io"
)

// Service is the full engine surface: everything a serving layer needs
// to ingest, maintain, search, and snapshot a corpus. Engine implements
// it, and DurableService wraps any Service with a write-ahead log. Use
// LoadService to restore a snapshot of any shard count.
type Service interface {
	// Schema and lifecycle. Build makes the first index and returns
	// ErrBuilt, changing nothing, once one exists; Rebuild compacts and
	// re-optimizes a built index. BuildOrRebuild calls whichever applies.
	Schema() Schema
	Build() error
	Rebuild() error
	Stats() (Stats, error)
	// EnableQuantization attaches an SQ8 shadow store to every shard and
	// routes searches over it with an exact re-rank of the top rerankK
	// candidates (0 = 4·k). Quantized reports the setting.
	EnableQuantization(rerankK int) error
	Quantized() bool

	// Shards. Every engine has S ≥ 1 of them; RebuildShard compacts one,
	// bounding rebuild work and transient memory to a single shard — the
	// maintenance manager paces rebuilds through it.
	ShardCount() int
	RebuildShard(j int) error
	ShardStats() []ShardInfo

	// Mutations. Epoch is a cache-invalidation key: it changes on every
	// result-visible mutation (it is the sum of the per-shard epochs).
	Epoch() uint64
	Len() int
	Deleted() int
	Insert(v NamedVectors) (int64, error)
	InsertObject(o Object) (int64, error)
	Delete(id int64) error
	Object(id int64) (NamedVectors, error)

	// Weights.
	Weights() Weights
	SetWeights(w Weights) error
	LearnWeights(queries []NamedVectors, positives []int64, cfg WeightConfig) (Weights, error)

	// Search.
	Search(ctx context.Context, q Query) (*Response, error)
	ExactSearch(ctx context.Context, q Query) (*Response, error)

	// Persistence. SaveTo streams a snapshot; WriteSnapshot is the one
	// way to write it to a file (temp file, fsync, rename, directory fsync).
	SaveTo(w io.Writer) error
}

// BuildOrRebuild builds svc if it has no index yet and rebuilds it
// otherwise, reporting whether this call made the first build. Build
// decides under the engine's build lock, so of concurrent calls on an
// unbuilt engine exactly one reports built; the others rebuild after it.
func BuildOrRebuild(svc Service) (built bool, err error) {
	err = svc.Build()
	if errors.Is(err, ErrBuilt) {
		return false, svc.Rebuild()
	}
	return err == nil, err
}

var (
	_ Service = (*Engine)(nil)
	_ Service = (*DurableService)(nil)
)
