package server

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"must"
)

const (
	testImgDim = 24
	testTxtDim = 12
)

func randVec(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// testEngine builds a small engine; returned queries[i]'s exact top
// match is ids[i] (queries are the stored, normalized vectors).
func testEngine(t testing.TB, n int) (*must.Engine, []must.Query, []int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	eng, err := must.NewEngine(must.Schema{
		{Name: "image", Dim: testImgDim},
		{Name: "text", Dim: testTxtDim},
	}, must.EngineOptions{Build: must.BuildOptions{Gamma: 12, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := eng.Insert(must.NamedVectors{
			"image": randVec(rng, testImgDim),
			"text":  randVec(rng, testTxtDim),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	queries := make([]must.Query, 0, 64)
	ids := make([]int64, 0, 64)
	for i := 0; i < 64; i++ {
		id := int64(rng.Intn(n))
		o, err := eng.Object(id)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, must.Query{Vectors: o, K: 3})
		ids = append(ids, id)
	}
	return eng, queries, ids
}

// heldService lets a test decide when each SearchEach call may return,
// which is how the batcher tests make "every slot is busy" a state they
// control instead of a race they hope to win. Every call announces
// itself on entered and then blocks for one value (or the close) of
// release. With a nil Service the answers are synthetic: query i's only
// match has ID == Query.K, so a test can tag requests through K.
type heldService struct {
	must.Service
	entered chan heldCall
	release chan struct{}
	// live is the sum of workers over the calls now inside SearchEach;
	// peak is its high-water mark.
	live, peak atomic.Int64
}

type heldCall struct {
	ks      []int // Query.K of every query in the call, in order
	workers int
}

func newHeldService(inner must.Service) *heldService {
	// entered is buffered past any test's call count so calls made after
	// the gate opens never block on an observer that stopped looking.
	return &heldService{Service: inner, entered: make(chan heldCall, 1024), release: make(chan struct{})}
}

func (h *heldService) SearchEach(ctx context.Context, queries []must.Query, workers int) ([]*must.Response, []error) {
	live := h.live.Add(int64(workers))
	defer h.live.Add(-int64(workers))
	for peak := h.peak.Load(); live > peak && !h.peak.CompareAndSwap(peak, live); peak = h.peak.Load() {
	}
	call := heldCall{workers: workers}
	for _, q := range queries {
		call.ks = append(call.ks, q.K)
	}
	h.entered <- call
	<-h.release
	if h.Service != nil {
		return h.Service.SearchEach(ctx, queries, workers)
	}
	resps := make([]*must.Response, len(queries))
	for i, q := range queries {
		resps[i] = &must.Response{Matches: []must.ScoredMatch{{ID: int64(q.K)}}}
	}
	return resps, make([]error, len(queries))
}

// tagged is a query a synthetic heldService answers with match ID k.
func tagged(k int) must.Query { return must.Query{K: k} }

// mustSubmit enqueues q without waiting for its answer; submitting from
// the test goroutine is what makes arrival order deterministic.
func mustSubmit(t *testing.T, b *batcher, ctx context.Context, q must.Query) *pending {
	t.Helper()
	p, err := b.submit(ctx, q)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return p
}

// wantAnswer waits for p's result and checks it is k's, from a batch of
// the given size.
func wantAnswer(t *testing.T, p *pending, k, size int) {
	t.Helper()
	r := <-p.out
	if r.err != nil {
		t.Fatalf("query %d: %v", k, r.err)
	}
	if got := r.resp.Matches[0].ID; got != int64(k) {
		t.Errorf("query %d answered with %d's result", k, got)
	}
	if r.batch.size != size {
		t.Errorf("query %d rode a batch of %d, want %d", k, r.batch.size, size)
	}
}

// TestBatcherIdleDispatchesAlone: a lone request on an idle batcher is
// dispatched by itself on one slot. Nothing but the request's own
// arrival can have triggered the dispatch — the batcher has no clock.
func TestBatcherIdleDispatchesAlone(t *testing.T) {
	svc := newHeldService(nil)
	b := newBatcher(svc, 64, 4, NewMetrics())
	defer b.Close()

	p := mustSubmit(t, b, context.Background(), tagged(7))
	if call := <-svc.entered; len(call.ks) != 1 || call.ks[0] != 7 || call.workers != 1 {
		t.Fatalf("lone request dispatched as %+v, want one query on one worker", call)
	}
	svc.release <- struct{}{}
	wantAnswer(t, p, 7, 1)

	// A second request while the first is still in the engine takes the
	// next free slot rather than waiting for a companion.
	p1 := mustSubmit(t, b, context.Background(), tagged(1))
	<-svc.entered
	p2 := mustSubmit(t, b, context.Background(), tagged(2))
	if call := <-svc.entered; len(call.ks) != 1 || call.ks[0] != 2 {
		t.Fatalf("request beside a busy slot dispatched as %+v, want alone", call)
	}
	close(svc.release)
	wantAnswer(t, p1, 1, 1)
	wantAnswer(t, p2, 2, 1)
}

// TestBatcherCoalescesBacklog: with every slot held, queued requests
// are released as one batch, in arrival order, by the next slot that
// frees, and the engine never sees more workers than there are slots.
func TestBatcherCoalescesBacklog(t *testing.T) {
	const slots, backlog = 2, 9
	svc := newHeldService(nil)
	m := NewMetrics()
	b := newBatcher(svc, 64, slots, m)
	defer b.Close()

	holders := make([]*pending, slots)
	for i := range holders {
		holders[i] = mustSubmit(t, b, context.Background(), tagged(100+i))
		<-svc.entered
	}
	queued := make([]*pending, backlog)
	for i := range queued {
		queued[i] = mustSubmit(t, b, context.Background(), tagged(i+1))
	}
	select {
	case call := <-svc.entered:
		t.Fatalf("dispatched %+v while every slot was held", call)
	default:
	}

	svc.release <- struct{}{} // one holder finishes; its slot takes the backlog
	call := <-svc.entered
	if call.workers != 1 {
		t.Errorf("backlog ran on %d workers with one slot free", call.workers)
	}
	if len(call.ks) != backlog {
		t.Fatalf("backlog dispatched as %v, want all %d in one batch", call.ks, backlog)
	}
	for i, k := range call.ks {
		if k != i+1 {
			t.Fatalf("batch order %v is not arrival order", call.ks)
		}
	}
	close(svc.release)
	for i, p := range holders {
		wantAnswer(t, p, 100+i, 1)
	}
	for i, p := range queued {
		wantAnswer(t, p, i+1, backlog)
	}
	if peak := svc.peak.Load(); peak > slots {
		t.Errorf("%d engine workers live at once, more than the %d slots", peak, slots)
	}
	if batches, queries := m.BatchCounters(); batches != slots+1 || queries != slots+backlog {
		t.Errorf("metrics saw %d batches / %d queries, want %d / %d", batches, queries, slots+1, slots+backlog)
	}
}

// TestBatcherMaxBatchSplitsBacklog: a backlog longer than maxBatch is
// served as consecutive FIFO batches, still within the slot budget.
func TestBatcherMaxBatchSplitsBacklog(t *testing.T) {
	const slots, maxBatch = 4, 3
	svc := newHeldService(nil)
	b := newBatcher(svc, maxBatch, slots, NewMetrics())
	defer b.Close()

	var holders, queued []*pending
	for i := 0; i < slots; i++ {
		holders = append(holders, mustSubmit(t, b, context.Background(), tagged(100+i)))
		<-svc.entered
	}
	for k := 1; k <= 5; k++ {
		queued = append(queued, mustSubmit(t, b, context.Background(), tagged(k)))
	}
	svc.release <- struct{}{}
	if first := <-svc.entered; len(first.ks) != maxBatch || first.ks[0] != 1 || first.workers != 1 {
		t.Fatalf("first batch %+v, want queries 1-3 on the one free slot", first)
	}
	close(svc.release)
	// By now one to four slots are free; the rest of the backlog may take
	// as many as it has queries.
	if second := <-svc.entered; len(second.ks) != 2 || second.ks[0] != 4 || second.workers < 1 || second.workers > 2 {
		t.Fatalf("second batch %+v, want queries 4-5 on one or two slots", second)
	}
	for i, p := range holders {
		wantAnswer(t, p, 100+i, 1)
	}
	for i, p := range queued {
		size := maxBatch
		if i >= maxBatch {
			size = 2
		}
		wantAnswer(t, p, i+1, size)
	}
	if peak := svc.peak.Load(); peak > slots {
		t.Errorf("%d engine workers live at once, more than the %d slots", peak, slots)
	}
}

// TestBatcherCoalesces runs real concurrent clients against a real
// engine: every request gets its own right answer whether it ran alone
// or in a shared batch, and a backlog costs fewer engine calls than it
// has queries.
func TestBatcherCoalesces(t *testing.T) {
	eng, queries, ids := testEngine(t, 500)
	svc := newHeldService(eng)
	m := NewMetrics()
	b := newBatcher(svc, 64, 2, m)
	defer b.Close()

	const clients, rounds = 32, 5
	var wg, submitted sync.WaitGroup
	var sawShared atomic.Bool
	wg.Add(clients)
	submitted.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				i := (c + round*7) % len(queries)
				p, err := b.submit(context.Background(), queries[i])
				if round == 0 {
					submitted.Done()
				}
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				r := <-p.out
				if r.err != nil {
					t.Errorf("client %d: %v", c, r.err)
					return
				}
				if len(r.resp.Matches) == 0 || r.resp.Matches[0].ID != ids[i] {
					t.Errorf("client %d round %d: wrong top match %+v, want %d",
						c, round, r.resp.Matches, ids[i])
					return
				}
				if r.batch.size > 1 {
					sawShared.Store(true)
				}
			}
		}(c)
	}
	// Both slots stay held until every client's first request is in, so
	// 30 of the 32 are certain to share batches.
	submitted.Wait()
	close(svc.release)
	wg.Wait()
	batches, served := m.BatchCounters()
	if served != clients*rounds {
		t.Fatalf("served %d queries, want %d", served, clients*rounds)
	}
	if batches > served-29 {
		t.Errorf("no coalescing: %d batches for %d queries", batches, served)
	}
	if !sawShared.Load() {
		t.Error("no request ever reported riding a shared batch")
	}
}

// TestBatcherCancellation: a request cancelled while it is queued
// returns promptly with its context's error, is excluded from the batch
// that forms, and its batch companions are unharmed.
func TestBatcherCancellation(t *testing.T) {
	svc := newHeldService(nil)
	b := newBatcher(svc, 64, 1, NewMetrics())
	defer b.Close()

	holder := mustSubmit(t, b, context.Background(), tagged(100))
	<-svc.entered

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, _, err := b.Search(ctx, tagged(1))
		errCh <- err
	}()
	cancel()
	// The only slot is still held: only the cancellation can have
	// answered the doomed request.
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request returned %v", err)
	}

	doomed := mustSubmit(t, b, ctx, tagged(2)) // dead on arrival, queued all the same
	companion := mustSubmit(t, b, context.Background(), tagged(3))
	close(svc.release)
	wantAnswer(t, holder, 100, 1)
	if r := <-doomed.out; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("queued request with a dead context answered %+v", r)
	}
	wantAnswer(t, companion, 3, 1)
	if call := <-svc.entered; len(call.ks) != 1 || call.ks[0] != 3 {
		t.Errorf("engine saw %v, want only the live companion", call.ks)
	}
}

// TestBatcherPerQueryErrors: an invalid query in a shared batch fails
// alone.
func TestBatcherPerQueryErrors(t *testing.T) {
	eng, queries, ids := testEngine(t, 400)
	svc := newHeldService(eng)
	b := newBatcher(svc, 8, 1, NewMetrics())
	defer b.Close()

	holder := mustSubmit(t, b, context.Background(), queries[4])
	<-svc.entered
	bad := must.Query{Vectors: must.NamedVectors{"sound": {1, 2, 3}}}
	ps := make([]*pending, 4)
	for i := range ps {
		q := queries[i]
		if i == 2 {
			q = bad
		}
		ps[i] = mustSubmit(t, b, context.Background(), q)
	}
	close(svc.release)
	<-holder.out
	for i, p := range ps {
		r := <-p.out
		if r.batch.size != len(ps) {
			t.Fatalf("query %d rode a batch of %d, want the shared batch of %d", i, r.batch.size, len(ps))
		}
		if i == 2 {
			if r.err == nil {
				t.Error("invalid query succeeded")
			}
			continue
		}
		if r.err != nil {
			t.Errorf("valid query %d poisoned by batch neighbor: %v", i, r.err)
			continue
		}
		if r.resp.Matches[0].ID != ids[i] {
			t.Errorf("query %d: wrong match %+v, want %d", i, r.resp.Matches[0], ids[i])
		}
	}
}

// TestBatcherCloseDrains: Close during a held batch answers everything
// already queued, and later submits are refused with ErrDraining.
func TestBatcherCloseDrains(t *testing.T) {
	svc := newHeldService(nil)
	b := newBatcher(svc, 4, 1, NewMetrics())

	holder := mustSubmit(t, b, context.Background(), tagged(100))
	<-svc.entered
	const n = 10 // more than two full batches
	queued := make([]*pending, n)
	for i := range queued {
		queued[i] = mustSubmit(t, b, context.Background(), tagged(i+1))
	}
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	<-b.stop // Close has flipped the flag; the held batch is still out
	if _, err := b.submit(context.Background(), tagged(0)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during Close returned %v, want ErrDraining", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with a batch in the engine and requests queued")
	default:
	}
	close(svc.release)
	wantAnswer(t, holder, 100, 1)
	for i, p := range queued {
		wantAnswer(t, p, i+1, min(4, n-i/4*4)) // batches of 4, 4, 2
	}
	<-closed
	if _, _, _, err := b.Search(context.Background(), tagged(0)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-close search returned %v, want ErrDraining", err)
	}
	b.Close() // second Close is a no-op
}
