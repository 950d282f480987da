package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"must"
)

// ErrDraining is returned to requests that arrive after the server
// began shutting down.
var ErrDraining = errors.New("server draining")

// ErrOverloaded is returned when the batch queue is full.
var ErrOverloaded = errors.New("server overloaded")

// batcher is a work-conserving dispatcher of searches onto a fixed
// number of engine slots. A request that arrives while a slot is free
// is dispatched at once; requests coalesce only while every slot is
// busy, and the batch that forms is whatever queued (FIFO, up to
// maxBatch) until a slot freed. No clock is involved: an idle server
// adds one channel hand-off to Engine.Search, and a saturated one turns
// its backlog into a few SearchEach calls — one read lock and one
// pooled searcher per worker for a whole batch, never more workers in
// flight than slots — instead of as many lock/pool round-trips racing
// each other.
type batcher struct {
	eng      must.Service
	maxBatch int
	metrics  *Metrics

	in    chan *pending
	slots chan struct{} // semaphore: a send takes an engine slot, a receive returns it
	stop  chan struct{}
	wg    sync.WaitGroup // the dispatcher and every batch in the engine

	mu     sync.RWMutex
	closed bool
}

type pending struct {
	ctx context.Context
	q   must.Query
	// out is buffered (capacity 1) so a dispatch never blocks on a
	// caller that gave up waiting.
	out chan batchResult
}

type batchResult struct {
	resp  *must.Response
	batch *batchInfo // shared by the answers of one engine call; nil if dead before it
	err   error
}

type batchInfo struct {
	size       int // live queries in the engine call
	dispatched time.Time
}

// newBatcher starts the dispatcher goroutine; slots ≤ 0 means GOMAXPROCS.
func newBatcher(eng must.Service, maxBatch, slots int, metrics *Metrics) *batcher {
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	b := &batcher{
		eng:      eng,
		maxBatch: maxBatch,
		metrics:  metrics,
		// Four full batches may queue before Search sheds; admission
		// control upstream should make that rare.
		in:    make(chan *pending, 4*maxBatch),
		slots: make(chan struct{}, slots),
		stop:  make(chan struct{}),
	}
	b.wg.Add(1)
	go b.run()
	return b
}

// Search submits one query and waits for its answer. It returns the
// engine response, the number of queries in the engine call that served
// it, how long it queued before that call was dispatched, and an error.
// Cancellation of ctx returns promptly even while the query is queued
// or in the engine; the abandoned answer is dropped without blocking
// anyone.
func (b *batcher) Search(ctx context.Context, q must.Query) (*must.Response, int, time.Duration, error) {
	enqueued := time.Now()
	p, err := b.submit(ctx, q)
	if err != nil {
		return nil, 0, 0, err
	}
	select {
	case r := <-p.out:
		if r.err != nil {
			return nil, 0, 0, r.err
		}
		queued := r.batch.dispatched.Sub(enqueued)
		b.metrics.ObserveQueueWait(queued)
		return r.resp, r.batch.size, queued, nil
	case <-ctx.Done():
		return nil, 0, 0, ctx.Err()
	}
}

// submit enqueues one query without waiting for it. A full queue fails
// fast with ErrOverloaded rather than block the client behind an
// unbounded one.
func (b *batcher) submit(ctx context.Context, q must.Query) (*pending, error) {
	p := &pending{ctx: ctx, q: q, out: make(chan batchResult, 1)}
	// Submitting under the read lock pairs with Close's write lock:
	// once closed is set, no new pending can enter b.in, so the final
	// drain cannot strand a request.
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, ErrDraining
	}
	select {
	case b.in <- p:
		return p, nil
	default:
		return nil, ErrOverloaded
	}
}

// Close stops accepting requests, serves everything already queued, and
// waits for the dispatcher and its batches to finish. Safe to call more
// than once.
func (b *batcher) Close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.stop)
	}
	b.mu.Unlock()
	b.wg.Wait()
}

func (b *batcher) run() {
	defer b.wg.Done()
	for {
		var first *pending
		select {
		case first = <-b.in:
		case <-b.stop:
			// Closed: nothing more can enter b.in, so serve what is there.
			select {
			case first = <-b.in:
			default:
				return
			}
		}
		// Waiting here for a slot is the only place requests coalesce:
		// with a slot free it returns at once and first runs alone.
		b.slots <- struct{}{}
		batch := append(make([]*pending, 0, min(1+len(b.in), b.maxBatch)), first)
	collect:
		for len(batch) < b.maxBatch {
			select {
			case p := <-b.in:
				batch = append(batch, p)
			default:
				break collect
			}
		}
		// A backlog spreads over every slot that happens to be free.
		workers := 1
	take:
		for workers < min(len(batch), cap(b.slots)) {
			select {
			case b.slots <- struct{}{}:
				workers++
			default:
				break take
			}
		}
		b.wg.Add(1)
		go b.dispatch(batch, workers)
	}
}

// dispatch answers one batch with a single SearchEach call on the
// workers slots it holds, and returns them. Requests whose context is
// already dead are answered immediately and excluded, so one cancelled
// client neither wastes engine work nor poisons the rest of the batch.
func (b *batcher) dispatch(batch []*pending, workers int) {
	defer b.wg.Done()
	defer func() {
		for ; workers > 0; workers-- {
			<-b.slots
		}
	}()
	live := batch[:0]
	for _, p := range batch {
		if err := p.ctx.Err(); err != nil {
			p.out <- batchResult{err: err}
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	b.metrics.ObserveBatch(len(live))
	info := &batchInfo{size: len(live), dispatched: time.Now()}
	// Not reused across batches: a sharded engine's straggler shards may
	// still read the slice after SearchEach has returned.
	queries := make([]must.Query, len(live))
	for i, p := range live {
		queries[i] = p.q
	}
	resps, errs := b.searchRecovered(queries, workers)
	for i, p := range live {
		p.out <- batchResult{resp: resps[i], batch: info, err: errs[i]}
	}
}

// searchRecovered runs the engine call for one batch, converting a
// panic into a per-request error. Without the recover, one poisoned
// query (or engine bug) in a batch would kill the whole daemon; with
// it, only this batch's requests see a 500 and the dispatcher keeps
// serving.
func (b *batcher) searchRecovered(queries []must.Query, workers int) (resps []*must.Response, errs []error) {
	defer func() {
		if r := recover(); r != nil {
			b.metrics.ObserveBatchPanic()
			err := fmt.Errorf("batch dispatch panicked: %v", r)
			resps = make([]*must.Response, len(queries))
			errs = make([]error, len(queries))
			for i := range errs {
				errs[i] = err
			}
		}
	}()
	// The batch deliberately runs under its own bounded context, not any
	// request's: a client that cancels mid-batch gets its answer slot
	// dropped (the select in Search already returned), but must not be
	// able to cancel the neighbors it was coalesced with. Engine work per
	// batch is bounded (≤ maxBatch short routing walks), so the deadline
	// is a backstop, not a tuning knob.
	bctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return b.eng.SearchEach(bctx, queries, workers)
}
