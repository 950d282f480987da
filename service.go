package must

import (
	"context"
	"io"
)

// Service is the full engine surface shared by Engine and ShardedEngine:
// everything a serving layer needs to ingest, maintain, search, and
// snapshot a corpus without caring how it is partitioned. Code written
// against Service runs unchanged over one graph or S shards; use
// LoadService to restore whichever kind a snapshot holds.
type Service interface {
	// Schema and lifecycle.
	Schema() Schema
	Build() error
	Rebuild() error
	Stats() (Stats, error)
	// EnableQuantization attaches an SQ8 shadow store (per shard, for a
	// ShardedEngine) and routes searches over it with an exact re-rank of
	// the top rerankK candidates (0 = 4·k). Quantized reports the setting.
	EnableQuantization(rerankK int) error
	Quantized() bool

	// Mutations. Epoch is a cache-invalidation key: it changes on every
	// result-visible mutation (for a ShardedEngine it is the sum of the
	// per-shard epochs, which is equally monotone).
	Epoch() uint64
	Len() int
	Deleted() int
	Insert(v NamedVectors) (int64, error)
	InsertObject(o Object) (int64, error)
	Delete(id int64) error
	Object(id int64) (NamedVectors, error)

	// Admission. SetAdmission installs (or clears, with the zero value)
	// the write-path gate: once configured, Insert/InsertObject/Delete
	// past the budget fail fast with ErrOverloaded instead of queueing.
	// Reads are never gated. WritesShed counts refusals since creation.
	//
	// A DurableService must be configured only after OpenDurable returns:
	// WAL replay re-applies already-acked writes through this same path,
	// and shedding one would silently drop durable data.
	SetAdmission(o AdmissionOptions) error
	WritesShed() uint64

	// Weights.
	Weights() Weights
	SetWeights(w Weights) error
	LearnWeights(queries []NamedVectors, positives []int64, cfg WeightConfig) (Weights, error)

	// Search.
	Search(ctx context.Context, q Query) (*Response, error)
	SearchEach(ctx context.Context, queries []Query, workers int) ([]*Response, []error)
	SearchBatch(ctx context.Context, queries []Query, workers int) ([]*Response, error)
	ExactSearch(ctx context.Context, q Query) (*Response, error)

	// Persistence. SaveTo streams a snapshot; WriteSnapshot is the one
	// way to write it to a file (temp file, fsync, rename, directory fsync).
	SaveTo(w io.Writer) error
}

// ShardRebuilder is the incremental-maintenance surface of a
// partitioned service: rebuild one shard at a time, bounding compaction
// work and transient memory to a single shard. ShardedEngine implements
// it, and DurableService forwards it (logging each shard rebuild) when
// its wrapped service does. The maintenance manager uses it to pace
// rebuilds shard by shard; a service that does not implement it is
// maintained with whole-engine Rebuild calls.
type ShardRebuilder interface {
	ShardCount() int
	RebuildShard(j int) error
	ShardStats() []ShardInfo
}

var (
	_ Service        = (*Engine)(nil)
	_ Service        = (*ShardedEngine)(nil)
	_ ShardRebuilder = (*ShardedEngine)(nil)
	_ ShardRebuilder = (*DurableService)(nil)
)
