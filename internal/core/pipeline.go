package core

import (
	"context"
	"errors"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/bloom"
	"tagmatch/internal/gpu"
	"tagmatch/internal/obs"
)

// query is one match operation flowing through the pipeline.
type query struct {
	sig    bitvec.Vector
	unique bool
	start  time.Time
	idx    *index

	// tags holds the query's tag set in ExactVerify mode; nil queries
	// (submitted by signature) skip exact verification.
	tags map[string]struct{}

	// pending counts the batches this query still has in flight, plus a
	// +1 guard held during pre-processing so the query cannot complete
	// while it is still being routed.
	pending atomic.Int32

	mu   sync.Mutex
	keys []Key

	done func(MatchResult)

	// trace is non-nil for the sampled 1-in-N queries when tracing is
	// configured; all event methods are nil-safe.
	trace *obs.Trace

	// deadline and ctx carry the submitter's cancellation state into the
	// pipeline (both zero for the non-ctx Submit family): batches check
	// them at dispatch, completing already-expired queries with
	// ErrDeadlineExceeded instead of spending device time on answers
	// nobody is waiting for. ctx is stored only when cancellable.
	deadline time.Time
	ctx      context.Context

	// expired marks a query completed early with ErrDeadlineExceeded.
	// The CAS in expire elects exactly one deliverer no matter how many
	// of the query's batches sweep it concurrently; finish() sees the
	// flag and only recycles.
	expired atomic.Bool
}

// finish decrements the outstanding-batch counter and runs the merge
// stage (§3.4) when it reaches zero. The goroutine that reaches zero
// owns the query exclusively — every batch's last access to a query is
// its finish call — so it also recycles the struct.
func (q *query) finish(e *Engine, n int32) {
	if q.pending.Add(-n) != 0 {
		return
	}
	if q.expired.Load() {
		// expire() already delivered the ErrDeadlineExceeded result and
		// counted the completion; the last batch reference only recycles.
		e.pools.putQuery(q)
		e.notifyProgress()
		return
	}
	q.mu.Lock()
	keys := q.keys
	q.keys = nil
	q.mu.Unlock()
	if q.unique {
		if e.obs.On {
			t0 := time.Now()
			keys = dedupKeys(keys)
			spent := time.Since(t0)
			e.obs.Merge.ObserveDuration(spent)
			if q.trace != nil {
				q.trace.Span(obs.StageMerge, "query", t0, 0, spent, -1, "", -1, int64(len(keys)))
			}
		} else {
			keys = dedupKeys(keys)
		}
	}
	e.keysDelivered.Add(int64(len(keys)))
	e.completed.Add(1)
	latency := time.Since(q.start)
	if e.obs.On {
		e.obs.E2E.ObserveDuration(latency)
	}
	q.trace.Done(int64(len(keys)))
	done := q.done
	e.pools.putQuery(q)
	if done != nil {
		done(MatchResult{Keys: keys, Latency: latency})
	}
	e.notifyProgress()
}

// lapsed reports whether the query can no longer meet its caller's
// deadline: the deadline passed or the submitting context was cancelled.
func (q *query) lapsed(now time.Time) bool {
	if !q.deadline.IsZero() && now.After(q.deadline) {
		return true
	}
	return q.ctx != nil && q.ctx.Err() != nil
}

// expiryCause builds the terminal error for an expired query: always
// matchable with ErrDeadlineExceeded, with the context's own error
// joined in so callers can also distinguish cancellation from timeout.
func (q *query) expiryCause() error {
	if q.ctx != nil {
		if err := q.ctx.Err(); err != nil {
			return errors.Join(ErrDeadlineExceeded, err)
		}
	}
	return ErrDeadlineExceeded
}

// expire completes a query early with ErrDeadlineExceeded. The CAS
// elects exactly one deliverer; losers (other batches holding the same
// query) return immediately. The query struct is NOT recycled here — it
// may still sit in other in-flight batches — the last batch reference
// does that via finish, which sees the expired flag and skips delivery.
func (q *query) expire(e *Engine, cause error) {
	if !q.expired.CompareAndSwap(false, true) {
		return
	}
	e.obs.Faults.DeadlineExpired.Add(1)
	e.completed.Add(1)
	latency := time.Since(q.start)
	if q.trace != nil {
		q.trace.Fail("deadline_exceeded")
		q.trace.Done(0)
	}
	if done := q.done; done != nil {
		done(MatchResult{Err: cause, Latency: latency})
	}
	e.notifyProgress()
}

// dedupKeys sorts and compacts a key slice in place (merge stage of
// match-unique).
func dedupKeys(keys []Key) []Key {
	if len(keys) < 2 {
		return keys
	}
	sortKeys(keys)
	out := keys[:1]
	for _, k := range keys[1:] {
		if k != out[len(out)-1] {
			out = append(out, k)
		}
	}
	return out
}

func sortKeys(keys []Key) {
	// Insertion sort for the short slices typical of selective queries;
	// stdlib pdqsort for large fan-out results.
	if len(keys) < 24 {
		for i := 1; i < len(keys); i++ {
			for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
		return
	}
	slices.Sort(keys)
}

// openBatch is a per-partition batch of queries being filled by the
// pre-process stage.
type openBatch struct {
	pid        uint32
	queries    []*query
	sigs       []bitvec.Vector
	created    time.Time
	dispatched time.Time

	// deadlined marks that at least one member carries a cancellable
	// context, so dispatch runs the expiry sweep; deadline-free traffic
	// pays nothing.
	deadlined bool

	// Tail-tolerance state. settled elects the one attempt — primary
	// chain or hedge — whose result reaches the reduce stage; refs
	// counts the attachments that may still touch the batch (the
	// reduce-stage hold, each in-flight attempt chain, an armed hedge
	// timer) so recycling waits for the losing attempt; hedged records
	// that a hedge was launched; hedgeTimer is the armed straggler
	// budget, disarmed when the batch settles.
	settled    atomic.Bool
	refs       atomic.Int32
	hedged     atomic.Bool
	hedgeTimer *time.Timer
	timerIdx   *index // index whose dispatching fence the armed timer holds

	// ctxs snapshots every member's context when ALL members carry one
	// (empty otherwise), written once at dispatch before any attempt
	// exists. Late attempt chains poll it — never b.queries, whose
	// members a rival settle may have recycled — to abandon stream
	// acquisition once every caller is gone.
	ctxs []context.Context
}

// streamCtx bundles a GPU stream with its pipelined dispatch slots
// (§3.3.2's even/odd double buffering generalized to StreamDepth). Each
// slot is a full set of per-batch device buffers, so up to depth batches
// can be in flight on one stream: batch n+1's header-reset + H2D +
// kernel are enqueued behind batch n's gated pairs transfer and overlap
// with its reduce, instead of the stream idling while the host walks
// batch n's results.
type streamCtx struct {
	dev    int
	stream *gpu.Stream
	slots  []*streamSlot

	// enqMu serializes whole batch enqueue sequences. With depth slots,
	// two dispatcher goroutines can hold slots of the same stream
	// concurrently; without the lock their FIFO entries could interleave
	// and a segment error of one batch would be consumed by the other's
	// callback. The executor never takes enqMu, so a dispatcher blocked
	// on a full FIFO while holding it cannot deadlock — the executor
	// keeps draining.
	enqMu sync.Mutex

	// inflight counts batches enqueued on the stream and not yet
	// completed; sampled into the slot-occupancy histogram at dispatch,
	// it measures how often the pipeline actually overlaps batches.
	inflight atomic.Int32
}

// streamSlot is one pipelined dispatch slot: the per-batch device
// buffers (query batch, result header, packed pair buffer, the
// split-layout ablation's two id arrays, and the query-window index
// array) plus the slot's host staging state. A slot is owned exclusively
// by one attempt from pool acquisition until its final callback returns
// it — attempts never share a slot, which is what keeps a losing hedge
// or a faulted segment from recycling buffers a rival attempt still
// reads (the cross-attempt sharing happens one level up, in the
// query window, under its pin counts).
//
// hdrHost is the host staging slot for the ablation paths' D2H header
// copy; res and fault carry the batch outcome from the header callback
// to the completion callback. All of the staging state is written by
// the dispatching goroutine before the batch's first enqueue (the
// FIFO send publishes it to the executor) or by the executor itself
// between the slot's callbacks; pool-channel handoff orders reuse.
type streamSlot struct {
	sc     *streamCtx
	qbuf   *gpu.Buffer[bitvec.Vector]
	qidx   *gpu.Buffer[uint32]
	hdr    *gpu.Buffer[uint32]
	pairs  *gpu.Buffer[byte]
	splitQ *gpu.Buffer[uint32]
	splitS *gpu.Buffer[uint32]

	hdrHost  []uint32
	qidxHost []uint32

	// Query-window staging for the batch in flight: the coalesced fill
	// payload (winHost, aligned with winRuns) and the window slots whose
	// pins/pending states the header callback must settle. Slot-owned so
	// async H2D sources never alias b.sigs, whose backing array a rival
	// settle may recycle mid-copy.
	winHost    []bitvec.Vector
	winRuns    []winRun
	winPinned  []int
	winUploads []int
	dedup      map[bitvec.Vector]uint32

	// res and fault are the in-flight batch's outcome, set by the header
	// callback and consumed by the completion callback (both on the
	// executor goroutine, FIFO-ordered).
	res   *batchResult
	fault error

	// traced holds the sampled traces of the batch in flight on this
	// slot; the stream's OnOp observer resolves each op's slot through
	// its attribution tag and attaches device-op spans to them, keeping
	// interleaved batches distinguishable.
	traced []*obs.Trace

	// The attempt in flight, written by gpuDispatchAttempt before any
	// op is enqueued and read by the callbacks below; complete copies
	// what it needs before releasing the slot to the next batch. chain
	// is the attempt chain's own trace list (traced is the slot's copy,
	// overwritten by the next batch); win is nil for a dense upload.
	e       *Engine
	idx     *index
	batch   *openBatch
	attempt int
	hedge   bool
	chain   []*obs.Trace
	win     *queryWindow
	launch  slicedLaunch

	// Bound once by newStreamSlot: launch.run and the packed path's
	// stream callbacks.
	kernel      gpu.KernelFunc
	onHeaderFn  func(error)
	resultDstFn func() ([]byte, int)
	completeFn  func(error)
}

func (sl *streamSlot) free() {
	sl.qbuf.Free()
	sl.qidx.Free()
	sl.hdr.Free()
	sl.pairs.Free()
	sl.splitQ.Free()
	sl.splitS.Free()
}

// newStreamSlot returns an empty slot of sc with its stream callbacks
// bound once, so a dispatch through the slot allocates no closures.
func newStreamSlot(e *Engine, sc *streamCtx) *streamSlot {
	sl := &streamSlot{e: e, sc: sc, hdrHost: make([]uint32, resHeaderWords)}
	sl.kernel = sl.launch.run
	sl.onHeaderFn = sl.onHeader
	sl.resultDstFn = sl.resultDst
	sl.completeFn = sl.complete
	return sl
}

// release returns the slot to its pool. The slot may be reacquired at
// once, so the caller must not read its attempt fields afterwards.
func (sl *streamSlot) release() {
	sl.sc.inflight.Add(-1)
	if sl.e.cfg.Replicate {
		sl.idx.streams <- sl
	} else {
		sl.idx.devStreams[sl.sc.dev] <- sl
	}
}

// settleWin resolves the window pins/pending states exactly once, in
// the first error-consuming callback of the batch — by which point the
// kernel has provably finished (FIFO order) and the fate of the fills
// is known.
func (sl *streamSlot) settleWin(failed bool) {
	if sl.win != nil {
		sl.win.settle(sl, failed)
	}
}

// onHeader is the packed path's header callback: it reads the
// device-side pair count and overflow flag and stages the outcome on
// the slot for complete.
func (sl *streamSlot) onHeader(opErr error) {
	sl.settleWin(opErr != nil)
	if opErr != nil {
		sl.fault = opErr
		return
	}
	e := sl.e
	rawCount := atomic.LoadUint32(&sl.hdr.Data()[0])
	rawOver := atomic.LoadUint32(&sl.hdr.Data()[1])
	count, overflow := clampCount(rawCount, rawOver, e.cfg.MaxPairsPerBatch)
	res := e.pools.getResult()
	res.idx, res.batch, res.count, res.overflow = sl.idx, sl.batch, count, overflow
	if !overflow {
		res.kind = payloadPacked
	}
	sl.res = res
}

// resultDst resolves the gated result copy's exact-size destination at
// the FIFO head: nothing to copy for an empty, overflowed or failed
// batch.
func (sl *streamSlot) resultDst() ([]byte, int) {
	res := sl.res
	if res == nil || res.overflow || res.count == 0 {
		return nil, 0
	}
	res.packed = growBytes(res.packed, ((res.count+3)/4)*bytesPerGroup)
	return res.packed, 0
}

// complete is the batch's final stream callback: it consumes the
// result-transfer segment's error, takes the outcome staged on the slot
// by the header callback, releases the slot, and routes to the reduce
// stage or the fault machinery. Every terminal path of the attempt
// chain runs through here exactly once (except the size-then-copy
// ablation, which completes inside its single callback).
func (sl *streamSlot) complete(opErr error) {
	e, idx, b, dev := sl.e, sl.idx, sl.batch, sl.sc.dev
	attempt, hedge, traced := sl.attempt, sl.hedge, sl.chain
	res, fault := sl.res, sl.fault
	sl.res, sl.fault = nil, nil
	if fault == nil && opErr != nil {
		if res != nil {
			e.pools.putResult(res)
		}
		fault = opErr
	}
	if fault != nil {
		sl.release()
		e.batchFault(idx, b, dev, attempt, hedge, traced, fault)
		return
	}
	e.batchOK(dev, b, hedge)
	sl.release()
	e.deliverResult(b, res, hedge)
	e.batchUnref(b)
	idx.dispatching.Done()
}

// streamOpsBuffer sizes a stream's op FIFO for pipelined dispatch: the
// deepest enqueue burst is ~9 ops per batch (window fill runs + index
// upload + fused launch + callbacks + gated copies), so depth×16 leaves
// slack for depth concurrent batches without a dispatcher ever parking
// on a full FIFO while holding enqMu.
func streamOpsBuffer(depth int) int {
	return max(64, depth*16)
}

// payloadKind selects the payload source the reduce stage decodes.
type payloadKind uint8

const (
	// payloadCPU: no device payload; reduce runs the subset match on the
	// host (CPU-only mode, or the overflow fallback).
	payloadCPU payloadKind = iota
	payloadPacked
	payloadSplit
)

// batchResult carries a completed subset-match batch to the key-lookup
// stage. kind selects the payload source; the payload slices keep their
// backing arrays across pool reuse (lengths are set per batch).
type batchResult struct {
	idx      *index
	batch    *openBatch
	count    int
	overflow bool // GPU result buffer overflowed (kind is payloadCPU)
	kind     payloadKind
	packed   []byte   // packed layout payload
	qIDs     []uint32 // split layout payload
	sIDs     []uint32
}

// Submit enqueues a match(q) operation; done is invoked exactly once with
// the multiset of matching keys. Returns ErrClosed after Close and
// ErrOverloaded when the Config.MaxInFlight admission gate rejects the
// query (done is not called in either case).
func (e *Engine) Submit(tags []string, done func(MatchResult)) error {
	return e.submit(nil, bloom.Signature(tags), e.tagSet(tags), false, done)
}

// SubmitUnique enqueues a match-unique(q) operation.
func (e *Engine) SubmitUnique(tags []string, done func(MatchResult)) error {
	return e.submit(nil, bloom.Signature(tags), e.tagSet(tags), true, done)
}

// SubmitSignature enqueues a match on a pre-computed signature. In
// ExactVerify mode such queries cannot be verified and behave as plain
// Bloom matches.
func (e *Engine) SubmitSignature(sig bitvec.Vector, unique bool, done func(MatchResult)) error {
	return e.submit(nil, sig, nil, unique, done)
}

// tagSet builds the exact-verification set for a query, or nil when the
// engine does not verify.
func (e *Engine) tagSet(tags []string) map[string]struct{} {
	if !e.cfg.ExactVerify {
		return nil
	}
	set := make(map[string]struct{}, len(tags))
	for _, t := range tags {
		set[t] = struct{}{}
	}
	return set
}

// submit is the common submission path. A non-nil cancellable ctx rides
// along on the query: its deadline (when set) and cancellation are
// observed at dispatch time, completing the query early with
// ErrDeadlineExceeded instead of launching device work for it.
func (e *Engine) submit(ctx context.Context, sig bitvec.Vector, tags map[string]struct{}, unique bool, done func(MatchResult)) error {
	if e.closed.Load() {
		return ErrClosed
	}
	e.submitMu.RLock()
	// Admission gate: counting this submission, more than MaxInFlight
	// queries would be in flight — shed it. submitted is incremented
	// before the capacity check (and before the channel send, which
	// awaitDrain's completed>=submitted test relies on) so concurrent
	// submitters each see their own claim; a rejected claim is rolled
	// back and progress is signalled for SubmitCtx waiters.
	if max := int64(e.cfg.MaxInFlight); max > 0 {
		if e.submitted.Add(1)-e.completed.Load() > max {
			e.submitted.Add(-1)
			e.submitMu.RUnlock()
			e.obs.Faults.QueriesShed.Add(1)
			// Shed queries never enter the pipeline, so finish() never
			// publishes a trace for them; sample and finalize here so the
			// trace ring reflects shedding instead of silently skipping
			// the rejected 1-in-N queries.
			if tr := e.obs.Tracer.Maybe(); tr != nil {
				tr.Abort("overloaded")
			}
			e.notifyProgress()
			return ErrOverloaded
		}
	} else {
		e.submitted.Add(1)
	}
	q := e.pools.getQuery()
	q.sig, q.tags, q.unique, q.done = sig, tags, unique, done
	q.start = time.Now()
	q.idx = e.idx.Load()
	q.trace = e.obs.Tracer.Maybe()
	if ctx != nil && ctx.Done() != nil {
		q.ctx = ctx
		if d, ok := ctx.Deadline(); ok {
			q.deadline = d
		}
	}
	q.pending.Store(1) // pre-processing guard
	e.inputCh <- q
	e.submitMu.RUnlock()
	return nil
}

// SubmitCtx is Submit that blocks for admission capacity instead of
// returning ErrOverloaded, up to the context's deadline. On cancellation
// it returns an error matching both ErrOverloaded and the context error.
func (e *Engine) SubmitCtx(ctx context.Context, tags []string, done func(MatchResult)) error {
	return e.submitCtx(ctx, bloom.Signature(tags), e.tagSet(tags), false, done)
}

// SubmitUniqueCtx is SubmitUnique with SubmitCtx's blocking admission.
func (e *Engine) SubmitUniqueCtx(ctx context.Context, tags []string, done func(MatchResult)) error {
	return e.submitCtx(ctx, bloom.Signature(tags), e.tagSet(tags), true, done)
}

// SubmitSignatureCtx is SubmitSignature with SubmitCtx's blocking
// admission and deadline propagation.
func (e *Engine) SubmitSignatureCtx(ctx context.Context, sig bitvec.Vector, unique bool, done func(MatchResult)) error {
	return e.submitCtx(ctx, sig, nil, unique, done)
}

func (e *Engine) submitCtx(ctx context.Context, sig bitvec.Vector, tags map[string]struct{}, unique bool, done func(MatchResult)) error {
	for {
		err := e.submit(ctx, sig, tags, unique, done)
		if !errors.Is(err, ErrOverloaded) {
			return err
		}
		if err := e.waitCapacity(ctx); err != nil {
			return err
		}
	}
}

// waitCapacity blocks until the pipeline makes progress (some query
// completes, freeing admission capacity) or the context ends. It flushes
// open batches first so capacity appears even without other traffic
// driving partially filled batches out.
func (e *Engine) waitCapacity(ctx context.Context) error {
	e.drainWaiters.Add(1)
	defer e.drainWaiters.Add(-1)
	stop := context.AfterFunc(ctx, func() {
		e.drainMu.Lock()
		e.drainCond.Broadcast()
		e.drainMu.Unlock()
	})
	defer stop()
	ep := e.progressEpoch.Load()
	e.flushAll(e.idx.Load())
	e.drainMu.Lock()
	for e.progressEpoch.Load() == ep && ctx.Err() == nil {
		e.drainCond.Wait()
	}
	e.drainMu.Unlock()
	if err := ctx.Err(); err != nil {
		return errors.Join(ErrOverloaded, err)
	}
	return nil
}

// Match performs a blocking match(q) and returns the multiset of keys of
// all indexed sets that are subsets of the query. It flushes open batches
// after submitting, so it completes promptly even without traffic; use
// Submit for maximal throughput.
func (e *Engine) Match(tags []string) ([]Key, error) {
	return e.blockingMatch(nil, bloom.Signature(tags), e.tagSet(tags), false)
}

// MatchUnique performs a blocking match-unique(q): the deduplicated set
// of keys associated with at least one matching set.
func (e *Engine) MatchUnique(tags []string) ([]Key, error) {
	return e.blockingMatch(nil, bloom.Signature(tags), e.tagSet(tags), true)
}

// MatchSignature is Match on a pre-computed signature.
func (e *Engine) MatchSignature(sig bitvec.Vector, unique bool) ([]Key, error) {
	return e.blockingMatch(nil, sig, nil, unique)
}

// MatchCtx is Match with an end-to-end deadline: the context's deadline
// and cancellation propagate into the pipeline, where expired queries
// are completed with an error matching ErrDeadlineExceeded before any
// kernel launch, and the call itself returns promptly when the context
// ends while waiting.
func (e *Engine) MatchCtx(ctx context.Context, tags []string) ([]Key, error) {
	return e.blockingMatch(ctx, bloom.Signature(tags), e.tagSet(tags), false)
}

// MatchUniqueCtx is MatchUnique with MatchCtx's deadline propagation.
func (e *Engine) MatchUniqueCtx(ctx context.Context, tags []string) ([]Key, error) {
	return e.blockingMatch(ctx, bloom.Signature(tags), e.tagSet(tags), true)
}

// MatchSignatureCtx is MatchSignature with MatchCtx's deadline
// propagation.
func (e *Engine) MatchSignatureCtx(ctx context.Context, sig bitvec.Vector, unique bool) ([]Key, error) {
	return e.blockingMatch(ctx, sig, nil, unique)
}

func (e *Engine) blockingMatch(ctx context.Context, sig bitvec.Vector, tags map[string]struct{}, unique bool) ([]Key, error) {
	ch := make(chan MatchResult, 1)
	if err := e.submit(ctx, sig, tags, unique, func(r MatchResult) { ch <- r }); err != nil {
		return nil, err
	}
	// Drive the pipeline event-driven until the result arrives, riding
	// the same progress-epoch condition variable as Drain: without
	// background traffic the query's batches would otherwise wait for
	// their flush timeout, and a single flush could race ahead of the
	// pre-process stage enqueuing the query. Each progress event (the
	// query finishing pre-processing, a batch leaving reduce) wakes the
	// waiter, which re-flushes; the epoch check closes the lost-wakeup
	// window where a batch is created while the waiter is inside
	// flushAll. No polling ticker: an idle blocking match costs no
	// flushAll sweeps beyond the ones progress events trigger.
	//
	// With a cancellable ctx the context's end also broadcasts the
	// condvar, so a caller parked in batch-wait unblocks promptly
	// instead of sleeping until the next progress event. The submitted
	// query still completes behind the scenes (its done callback writes
	// to the buffered channel), delivering ErrDeadlineExceeded through
	// the dispatch-time expiry sweep.
	if ctx != nil && ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			e.drainMu.Lock()
			e.drainCond.Broadcast()
			e.drainMu.Unlock()
		})
		defer stop()
	}
	e.drainWaiters.Add(1)
	defer e.drainWaiters.Add(-1)
	for {
		ep := e.progressEpoch.Load()
		e.flushAll(e.idx.Load())
		select {
		case r := <-ch:
			return r.Keys, r.Err
		default:
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				// One last chance for a result that raced the cancellation.
				select {
				case r := <-ch:
					return r.Keys, r.Err
				default:
				}
				return nil, errors.Join(ErrDeadlineExceeded, err)
			}
		}
		e.drainMu.Lock()
		if e.progressEpoch.Load() == ep {
			e.drainCond.Wait()
		}
		e.drainMu.Unlock()
	}
}

// routeMergeAppends caps how many (query, partition) appends a
// pre-process worker buffers locally before merging into the shared
// per-partition batches. Merges also happen whenever the input channel
// is momentarily empty, so the cap only bounds buffering (and thus
// added latency) under sustained load, where batch fill dominates
// latency anyway.
const routeMergeAppends = 1024

// routeAccum is a pre-process worker's local batch accumulator: routed
// (query, partition) appends collected across a burst of queries and
// merged into the shared per-partition open batches in bulk, one
// partition-lock acquisition per (burst, partition) instead of one per
// (query, partition). Worker-local, so accumulation itself is
// lock-free; all slices keep their capacity across bursts.
type routeAccum struct {
	idx     *index       // generation the buffered appends belong to
	slots   [][]*query   // queries routed to each partition this burst
	touched []uint32     // partitions with a non-empty slot
	pending int          // buffered appends across all slots
	full    []*openBatch // merge-time scratch for batches that filled
}

// bind points the accumulator at an index generation. The caller must
// have merged (pending == 0), so every retained slot is empty.
func (a *routeAccum) bind(idx *index) {
	a.idx = idx
	if n := len(idx.parts); cap(a.slots) < n {
		a.slots = make([][]*query, n)
	} else {
		a.slots = a.slots[:n]
	}
	a.touched = a.touched[:0]
	a.pending = 0
}

// routeState is the per-worker scratch of the pre-process stage.
type routeState struct {
	pids  []uint32 // routed partition ids, reused across queries
	ones  []int    // the query signature's one-bit positions, computed once
	dkeys []Key    // delta-overlay hits, reused across queries
	acc   routeAccum
}

// preprocessWorker implements the pre-process stage (Algorithm 2): find
// the partitions whose mask is a subset of the query and enqueue the
// query into their batches. Routing uses the bit-sliced partition table
// (Config.ScalarRouting selects the retained scalar scan), and batch
// appends accumulate worker-locally across a burst of queries — as many
// as are immediately available on the input channel, up to
// routeMergeAppends appends — before merging into the shared batches in
// bulk. A worker always merges before blocking for more input, so no
// query ever waits in a local accumulator while the pipeline is idle.
func (e *Engine) preprocessWorker() {
	defer e.workerWg.Done()
	pprof.Do(context.Background(), pprof.Labels("stage", "preprocess"), func(context.Context) {
		var w routeState
		for q := range e.inputCh {
			e.routeOne(&w, q)
		collect:
			for w.acc.pending < routeMergeAppends {
				select {
				case q2, ok := <-e.inputCh:
					if !ok {
						break collect // merge below; the outer range exits next
					}
					e.routeOne(&w, q2)
				default:
					break collect
				}
			}
			e.mergeRoutes(&w.acc)
			e.notifyProgress()
		}
		e.mergeRoutes(&w.acc) // safety net; a clean exit already merged
	})
}

// routeOne runs Algorithm 2 for one query and buffers its batch appends
// in the worker's accumulator. The routing guard (+1 pending) drops
// here: the buffered appends already hold their own pending references,
// so a query routed to no partition completes immediately and one
// routed somewhere cannot complete before its last batch reduces.
func (e *Engine) routeOne(w *routeState, q *query) {
	idx := q.idx
	if w.acc.idx != idx {
		// Index generation changed under the accumulator (Consolidate
		// swapped it): flush the buffered appends of the old generation
		// before touching the new one.
		e.mergeRoutes(&w.acc)
		w.acc.bind(idx)
	}
	t0 := time.Now()
	// One pass over the signature serves both the bin walk (scalar and
	// sliced lookups take the precomputed one-bit positions) and the
	// trace below — the old path re-walked the signature with NextOne.
	w.ones = q.sig.Ones(w.ones[:0])
	if e.cfg.ScalarRouting {
		w.pids = idx.pt.lookup(q.sig, w.ones, w.pids[:0])
		e.obs.Routing.ScalarQueries.Add(1)
	} else {
		w.pids = idx.pt.lookupSliced(q.sig, w.ones, w.pids[:0])
		e.obs.Routing.SlicedQueries.Add(1)
	}
	w.pids = append(w.pids, idx.maskless...)
	e.partsSearched.Add(int64(len(w.pids)))
	for _, pid := range w.pids {
		q.pending.Add(1)
		if len(w.acc.slots[pid]) == 0 {
			w.acc.touched = append(w.acc.touched, pid)
		}
		w.acc.slots[pid] = append(w.acc.slots[pid], q)
	}
	w.acc.pending += len(w.pids)
	spent := time.Since(t0)
	e.preprocessNs.Add(int64(spent))
	if e.obs.On {
		// Per-query routing time; the bulk-merge time is accounted to
		// preprocessNs by mergeRoutes but not attributed per query.
		e.obs.Preprocess.ObserveDuration(spent)
		// Input-queue wait: submit to pre-process pickup.
		e.obs.InputWait.ObserveDuration(t0.Sub(q.start))
	}
	if q.trace != nil {
		q.trace.Event("route-bins", -1, int64(len(w.ones)))
		q.trace.Event(obs.StagePreprocess, -1, int64(len(w.pids)))
		q.trace.Span(obs.StagePreprocess, "query", q.start, t0.Sub(q.start), spent,
			-1, "", -1, int64(len(w.pids)))
		if !q.deadline.IsZero() {
			// Deadline slack remaining after the pre-process stage; the
			// dispatch sweep records the pre-launch counterpart, giving
			// traced queries a per-stage slack attribution.
			q.trace.Event("deadline-slack-routed", -1, int64(time.Until(q.deadline)))
		}
	}
	// Merge the delta overlay's hits before the routing guard drops:
	// staged-but-unconsolidated adds match alongside the main index.
	e.deltaMatch(w, q)
	q.finish(e, 1)
}

// mergeRoutes drains the accumulator into the shared per-partition open
// batches: one partition-lock acquisition per touched partition for the
// whole burst. Batches that fill during the merge are detached under
// the lock and dispatched after it is released, exactly like the old
// per-append path; partially filled batches stay open for the flusher.
func (e *Engine) mergeRoutes(acc *routeAccum) {
	if acc.pending == 0 {
		return
	}
	idx := acc.idx
	t0 := time.Now()
	full := acc.full[:0]
	for _, pid := range acc.touched {
		qs := acc.slots[pid]
		p := &idx.parts[pid]
		idx.locks[pid].Lock()
		for len(qs) > 0 {
			if p.batch == nil {
				p.batch = e.pools.getBatch(pid, e.cfg.BatchSize)
				if !p.dirty {
					// Mark inside the partition lock: flag and list
					// membership stay in lock step, so the dirty list
					// never holds duplicates.
					p.dirty = true
					idx.markDirty(pid)
				}
			}
			b := p.batch
			take := e.cfg.BatchSize - len(b.queries)
			if take > len(qs) {
				take = len(qs)
			}
			for _, q := range qs[:take] {
				b.queries = append(b.queries, q)
				b.sigs = append(b.sigs, q.sig)
				if q.ctx != nil {
					b.deadlined = true
				}
				if q.trace != nil {
					q.trace.Event("batch", int32(pid), int64(len(b.queries)))
				}
			}
			qs = qs[take:]
			if len(b.queries) >= e.cfg.BatchSize {
				// The partition stays dirty (its id stays listed) until
				// the next flush visit notices the batch is gone and
				// clears the flag.
				p.batch = nil
				full = append(full, b)
			}
		}
		idx.locks[pid].Unlock()
		if c := e.partCounters(pid); c != nil {
			c.QueriesRouted.Add(int64(len(acc.slots[pid])))
		}
		clear(acc.slots[pid]) // drop query refs; they recycle independently
		acc.slots[pid] = acc.slots[pid][:0]
	}
	e.obs.Routing.MergeLockAcqs.Add(int64(len(acc.touched)))
	e.obs.Routing.MergedAppends.Add(int64(acc.pending))
	acc.touched = acc.touched[:0]
	acc.pending = 0
	e.preprocessNs.Add(int64(time.Since(t0)))
	for _, b := range full {
		e.dispatch(idx, b, dispatchFull)
	}
	clear(full) // drop batch refs; reduceOne recycles them
	acc.full = full[:0]
}

// markDirty appends pid to the dirty-partition list. Callers hold the
// partition's lock; the lock order partition-lock → dirtyMu is safe
// because no path acquires a partition lock while holding dirtyMu.
func (idx *index) markDirty(pid uint32) {
	idx.dirtyMu.Lock()
	idx.dirty = append(idx.dirty, pid)
	idx.dirtyMu.Unlock()
}

// takeDirty detaches the current dirty-partition list for a flush pass,
// installing the spare buffer so concurrent appends keep recording. The
// caller must hand the returned slice to recycleDirty when done.
func (idx *index) takeDirty() []uint32 {
	idx.dirtyMu.Lock()
	pids := idx.dirty
	if idx.dirtySpare != nil {
		idx.dirty = idx.dirtySpare[:0]
		idx.dirtySpare = nil
	} else {
		idx.dirty = nil
	}
	idx.dirtyMu.Unlock()
	return pids
}

// requeueDirty re-lists partitions whose batches were too young to
// flush; their dirty flags are still set.
func (idx *index) requeueDirty(pids []uint32) {
	if len(pids) == 0 {
		return
	}
	idx.dirtyMu.Lock()
	idx.dirty = append(idx.dirty, pids...)
	idx.dirtyMu.Unlock()
}

// recycleDirty returns a taken list's backing array for reuse.
func (idx *index) recycleDirty(pids []uint32) {
	if cap(pids) == 0 {
		return
	}
	idx.dirtyMu.Lock()
	if idx.dirtySpare == nil {
		idx.dirtySpare = pids[:0]
	}
	idx.dirtyMu.Unlock()
}

// flushAll dispatches every open batch regardless of fill level. Only
// dirty partitions are visited: with P partitions in the thousands and
// a handful seeing traffic, sweeping all P per call would dominate the
// flush path (drain, blocking matches) with uncontended-lock traffic.
func (e *Engine) flushAll(idx *index) {
	pids := idx.takeDirty()
	for _, pid := range pids {
		p := &idx.parts[pid]
		idx.locks[pid].Lock()
		b := p.batch
		p.batch = nil
		p.dirty = false
		idx.locks[pid].Unlock()
		if b != nil {
			e.dispatch(idx, b, dispatchFlush)
		}
	}
	idx.recycleDirty(pids)
}

// flusher enforces the batch timeout (§3): partially filled batches are
// pushed through the pipeline once they age past BatchTimeout. Each tick
// visits only dirty partitions; too-young batches are requeued.
func (e *Engine) flusher() {
	defer close(e.flushDone)
	tick := e.cfg.BatchTimeout / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-e.flushStop:
			return
		case now := <-t.C:
			idx := e.idx.Load()
			pids := idx.takeDirty()
			keep := pids[:0] // compact in place: write index trails read index
			for _, pid := range pids {
				p := &idx.parts[pid]
				idx.locks[pid].Lock()
				var b *openBatch
				switch {
				case p.batch == nil:
					p.dirty = false // stale entry: batch already dispatched full
				case now.Sub(p.batch.created) >= e.cfg.BatchTimeout:
					b = p.batch
					p.batch = nil
					p.dirty = false
				default:
					keep = append(keep, pid) // too young; stays dirty
				}
				idx.locks[pid].Unlock()
				if b != nil {
					e.batchesTimedOut.Add(1)
					e.dispatch(idx, b, dispatchTimeout)
				}
			}
			// requeueDirty copies keep's values into the live list, so
			// the taken buffer (which keep aliases) is free to recycle.
			idx.requeueDirty(keep)
			idx.recycleDirty(pids)
		}
	}
}

// dispatchReason records why a batch left the pre-process stage, for the
// per-partition fullness-vs-timeout breakdown.
type dispatchReason uint8

const (
	dispatchFull dispatchReason = iota
	dispatchTimeout
	dispatchFlush
)

// dispatch runs the subset-match stage for one batch: on a GPU stream
// when devices are configured, otherwise synchronously on the calling CPU
// thread (CPU-only TagMatch). Batches carrying deadlined queries are
// swept first: members whose deadline already passed complete with
// ErrDeadlineExceeded here, before any device work, and a batch left
// empty by the sweep is cancelled outright — it never counts as
// dispatched and never reaches a kernel launch.
func (e *Engine) dispatch(idx *index, b *openBatch, reason dispatchReason) {
	if b.deadlined {
		if b = e.sweepExpired(b); b == nil {
			return
		}
		for _, q := range b.queries {
			if q.ctx == nil {
				b.ctxs = b.ctxs[:0] // a ctx-less member can never expire
				break
			}
			b.ctxs = append(b.ctxs, q.ctx)
		}
	}
	e.batches.Add(1)
	e.inflightBatches.Add(1)
	if e.obs.On {
		e.obs.BatchOccupancy.Observe(int64(len(b.queries)))
		if c := e.obs.Parts.Get(b.pid); c != nil {
			switch reason {
			case dispatchFull:
				c.BatchesFull.Add(1)
			case dispatchTimeout:
				c.BatchesTimedOut.Add(1)
			default:
				c.BatchesFlushed.Add(1)
			}
		}
	}
	b.dispatched = time.Now()
	if e.obs.On {
		wait := b.dispatched.Sub(b.created)
		e.obs.BatchWait.ObserveDuration(wait)
		if e.obs.Tracing() {
			for _, q := range b.queries {
				q.trace.Span("batch-wait", "query", b.created, wait, 0,
					int32(b.pid), "", -1, int64(len(b.queries)))
			}
		}
	}
	b.refs.Store(1) // the reduce-stage hold, dropped by reduceOne
	if len(idx.devices) == 0 {
		e.cpuDispatch(idx, b, false)
		return
	}
	e.gpuDispatch(idx, b)
}

// sweepExpired completes every already-expired query in the batch with
// ErrDeadlineExceeded and compacts the batch in place. Returns nil when
// every member expired: the batch is cancelled — recycled without ever
// counting as dispatched — which pins the invariant that expired
// queries never reach a kernel launch. Surviving deadline-carrying
// queries record their remaining slack (the headroom the batching
// stages left for the device) in the DeadlineSlack histogram.
func (e *Engine) sweepExpired(b *openBatch) *openBatch {
	now := time.Now()
	keepQ, keepS := b.queries[:0], b.sigs[:0]
	for i, q := range b.queries {
		if q.lapsed(now) {
			q.expire(e, q.expiryCause())
			q.finish(e, 1) // drop this batch's reference
			continue
		}
		if e.obs.On && !q.deadline.IsZero() {
			slack := q.deadline.Sub(now)
			e.obs.DeadlineSlack.ObserveDuration(slack)
			if q.trace != nil {
				q.trace.Event("deadline-slack-dispatch", int32(b.pid), int64(slack))
			}
		}
		keepQ = append(keepQ, q)
		keepS = append(keepS, b.sigs[i])
	}
	if len(keepQ) == 0 {
		e.obs.Faults.BatchesCancelled.Add(1)
		e.pools.putBatch(b)
		e.notifyProgress()
		return nil
	}
	// Clear the compaction tail so dropped query refs don't linger in
	// the batch's backing array until its next recycle.
	clear(b.queries[len(keepQ):])
	b.queries, b.sigs = keepQ, keepS
	return b
}

// cpuDispatch forwards the batch to the reduce stage for a host-side
// subset match, racing any concurrent attempt through the settle CAS.
func (e *Engine) cpuDispatch(idx *index, b *openBatch, hedge bool) {
	res := e.pools.getResult()
	res.idx, res.batch, res.kind = idx, b, payloadCPU // reduce runs the CPU match
	e.deliverResult(b, res, hedge)
}

// gpuDispatch issues the copy/launch/copy sequence on an acquired stream
// (§3.3.2). All operations are asynchronous; the final stream callback
// hands the results to the reduce stage and releases the stream. The
// sampled traces of the batch are captured once here — before any
// concurrent attempt exists — and threaded through retries and hedges,
// which must not re-read b.queries (the reduce stage recycles queries
// as soon as the winning attempt lands).
func (e *Engine) gpuDispatch(idx *index, b *openBatch) {
	var traced []*obs.Trace
	if e.obs.Tracing() {
		for _, q := range b.queries {
			if q.trace != nil {
				traced = append(traced, q.trace)
			}
		}
	}
	e.batchRef(b)
	idx.dispatching.Add(1)
	e.gpuDispatchAttempt(idx, b, 0, -1, false, traced)
}

// batchRef and batchUnref count the attachments that may still touch an
// openBatch: the reduce-stage hold, each in-flight attempt chain, and
// an armed hedge timer. Before hedging exactly one attempt chain ever
// ran, so reduceOne could recycle the batch directly; a losing attempt
// now outlives the reduce, so the last detacher recycles instead.
func (e *Engine) batchRef(b *openBatch) { b.refs.Add(1) }

func (e *Engine) batchUnref(b *openBatch) {
	if n := b.refs.Add(-1); n == 0 {
		e.pools.putBatch(b)
	} else if n < 0 {
		panic("batchUnref: negative refcount")
	}
}

// settleBatch claims the exclusive right to complete the batch: exactly
// one attempt — primary chain or hedge — wins the CAS, extending PR 3's
// "every batch reaches reduce exactly once" guarantee across racing
// attempts. The winner also disarms the straggler budget timer; when
// the timer is stopped before firing, its batch reference and
// dispatching hold are released on its behalf.
func (e *Engine) settleBatch(b *openBatch) bool {
	if !b.settled.CompareAndSwap(false, true) {
		return false
	}
	if t := b.hedgeTimer; t != nil && t.Stop() {
		b.timerIdx.dispatching.Done()
		e.batchUnref(b)
	}
	return true
}

// deliverResult forwards one completed attempt's result to the reduce
// stage if the attempt settled the batch, or discards it when the rival
// attempt already won the race.
func (e *Engine) deliverResult(b *openBatch, res *batchResult, hedge bool) {
	if e.settleBatch(b) {
		if hedge {
			e.obs.Faults.HedgesWon.Add(1)
		}
		e.reduceCh <- res
		return
	}
	if hedge {
		e.obs.Faults.HedgesLost.Add(1)
	}
	e.pools.putResult(res)
}

// hedgingEnabled reports whether Config.HedgePolicy arms straggler
// budgets on GPU dispatches.
func (e *Engine) hedgingEnabled() bool { return e.cfg.HedgePolicy.Mode != HedgeOff }

// hedgeMinSamples is the per-device successful-batch count below which
// the percentile budget falls back to MinBudget: hedging off a
// three-sample "p99" would fire on noise.
const hedgeMinSamples = 16

// hedgeBudget resolves the straggler budget for a batch dispatched to
// dev: the fixed budget, or Multiplier times the device's tracked
// Percentile batch service time once enough samples exist, floored at
// MinBudget.
func (e *Engine) hedgeBudget(dev int) time.Duration {
	hp := &e.cfg.HedgePolicy
	if hp.Mode == HedgeFixed {
		return hp.Budget
	}
	h := &e.health[dev].svc
	if h.Count() >= hedgeMinSamples {
		p := h.Snapshot().QuantileDuration(hp.Percentile)
		if budget := time.Duration(float64(p) * hp.Multiplier); budget > hp.MinBudget {
			return budget
		}
	}
	return hp.MinBudget
}

// maybeHedge fires when a dispatched batch outlives its straggler
// budget: if the primary attempt still has not settled, the batch is
// re-dispatched to another healthy device — or the host's same-flavor
// match — racing the straggler. The settle CAS keeps completion
// exactly-once; the loser's results are discarded. Runs on the budget
// timer's goroutine, holding the batch reference and index dispatching
// hold taken when the timer was armed.
func (e *Engine) maybeHedge(idx *index, b *openBatch, primary int, traced []*obs.Trace) {
	defer idx.dispatching.Done()
	if b.settled.Load() || e.closed.Load() {
		e.obs.Faults.HedgesCancelled.Add(1)
		e.batchUnref(b)
		return
	}
	b.hedged.Store(true)
	e.obs.Faults.HedgesFired.Add(1)
	e.logger().Debug("hedging straggler batch",
		"partition", b.pid, "queries", len(b.queries),
		"primary", e.deviceName(primary))
	// The "hedge" span covers the primary attempt's run-up to the budget
	// firing, so the timeline shows how long the straggler was tolerated;
	// the hedge attempt's own device ops follow as ordinary op spans.
	now := time.Now()
	for _, tr := range traced {
		tr.Span("hedge", "query", b.dispatched, 0, now.Sub(b.dispatched),
			int32(b.pid), "", -1, int64(primary))
		tr.Event("hedge-fired", int32(b.pid), int64(primary))
		tr.Degrade("hedged")
	}
	e.batchRef(b)
	idx.dispatching.Add(1)
	e.gpuDispatchAttempt(idx, b, 0, primary, true, traced)
	e.batchUnref(b) // the timer's own hold
}

// acquireStream pulls a dispatch slot whose device is healthy (or due a
// recovery probe), preferring devices other than avoid — the device of a
// failed prior attempt. The pool holds StreamDepth slots per stream, so
// up to depth batches can be dispatching onto one stream concurrently.
// It returns nil when no usable slot can be found in a bounded number of
// tries, in which case the caller re-runs the batch on the host. Skipped
// slots go straight back into the pool, so quarantining never shrinks
// the pool itself. The inter-pass backoff is abandoned — returning nil
// immediately — when the engine is closing, the batch has already
// settled (a rival hedge attempt delivered), or every member query has
// expired: sleeping through any of those would hold up shutdown or burn
// the callers' remaining deadline for a slot nobody needs anymore.
func (e *Engine) acquireStream(idx *index, b *openBatch, avoid int) *streamSlot {
	if !e.cfg.Replicate {
		// Partitioned placement binds the partition to one device; there
		// is no alternative device to retry on.
		dev := idx.parts[b.pid].dev
		if e.acquireAbandoned(b) {
			return nil
		}
		if !e.deviceUsable(dev) {
			return nil
		}
		if e.health[dev].quarantined.Load() {
			// deviceUsable elected this batch as the recovery probe; the
			// probe must dispatch, so wait out the stream unconditionally.
			return <-idx.devStreams[dev]
		}
		for {
			select {
			case sc := <-idx.devStreams[dev]:
				return sc
			default:
				if e.acquireAbandoned(b) {
					return nil
				}
				time.Sleep(streamAcquireBackoff)
			}
		}
	}
	// Replicate mode: scan the shared pool without ever parking on the
	// channel — a checked-out slot can be hundreds of milliseconds away
	// behind an injected (or real) straggler, and a batch that has become
	// moot in the meantime (engine closed, every member's context ended,
	// or a hedge rival already settled it) must stop waiting for one.
	// Each round drains whatever is currently pooled, preferring a
	// device other than avoid but holding a usable avoided slot as the
	// round's fallback (a single-device engine retries on another slot
	// of the same GPU). A fruitless round when every device is
	// quarantined gives up (CPU fallback); a fruitless round with merely
	// checked-out slots backs off briefly and rescans, re-checking
	// abandonment around the sleep so expired work never queues behind a
	// straggler.
	for {
		var fallback *streamSlot
		for i := 0; i < cap(idx.streams); i++ {
			var sl *streamSlot
			select {
			case sl = <-idx.streams:
			default:
			}
			if sl == nil {
				break // pool exhausted this round
			}
			if e.deviceUsable(sl.sc.dev) {
				// A usable quarantined device means deviceUsable elected
				// this batch as its recovery probe: dispatch there even if
				// it is the avoided device, or the probe would leak.
				if sl.sc.dev != avoid || e.health[sl.sc.dev].quarantined.Load() {
					if fallback != nil {
						idx.streams <- fallback
					}
					return sl
				}
				if fallback == nil {
					fallback = sl
					continue
				}
			}
			idx.streams <- sl
		}
		if fallback != nil {
			return fallback // only the avoided device is usable
		}
		if e.acquireAbandoned(b) || e.allDevicesQuarantined() {
			return nil
		}
		time.Sleep(streamAcquireBackoff)
		if e.acquireAbandoned(b) {
			return nil
		}
	}
}

// allDevicesQuarantined reports whether no device can currently serve
// batches at all; acquireStream stops waiting for pooled streams then
// (the scan itself still lets recovery probes through, because
// deviceUsable elects them while the pool is inspected).
func (e *Engine) allDevicesQuarantined() bool {
	for d := range e.health {
		if !e.health[d].quarantined.Load() {
			return false
		}
	}
	return true
}

// acquireAbandoned reports whether a stream acquisition should give up
// without its backoff sleep: the engine is closing, a rival attempt has
// settled the batch, or every member query's context has ended. The
// expiry check reads the context snapshot captured at dispatch, not
// b.queries — after a rival settles, the reduce stage recycles the
// query structs while this attempt is still running, but a context
// value stays valid forever.
func (e *Engine) acquireAbandoned(b *openBatch) bool {
	if e.closed.Load() || b.settled.Load() {
		return true
	}
	if len(b.ctxs) == 0 {
		return false
	}
	for _, ctx := range b.ctxs {
		if ctx.Err() == nil {
			return false
		}
	}
	return true
}

// streamAcquireBackoff separates acquireStream's two scan passes when
// the first found no usable device at all (typically: every device
// quarantined), so concurrent fallbacks don't spin hot on the pool.
const streamAcquireBackoff = 500 * time.Microsecond

// gpuDispatchAttempt runs one GPU attempt for the batch. attempt 0 is the
// initial dispatch; a failed attempt is retried once (attempt 1) on a
// stream avoiding the failed device, and a second failure — or no usable
// stream at all — re-runs the batch on the host, so every batch reaches
// the reduce stage exactly once no matter how the devices behave. With
// hedge set, the attempt is a straggler hedge racing the primary chain:
// it neither retries nor falls back on failure (the primary chain owns
// the delivery guarantee) and its result goes through the same settle
// CAS, the loser being discarded. The caller has taken one batch
// reference and one index dispatching hold for the chain; every
// terminal path of the chain releases both exactly once.
func (e *Engine) gpuDispatchAttempt(idx *index, b *openBatch, attempt, avoid int, hedge bool, traced []*obs.Trace) {
	p := &idx.parts[b.pid]
	sl := e.acquireStream(idx, b, avoid)
	if sl == nil {
		if hedge {
			// No device to hedge onto: race the straggler on the host.
			// Not a fault fallback — only the hedge counters move.
			e.cpuDispatch(idx, b, true)
		} else {
			e.fallbackCPU(idx, b, traced)
		}
		e.batchUnref(b)
		idx.dispatching.Done()
		return
	}
	sc := sl.sc
	dev := sc.dev
	// Partitions appended by an incremental fold live in per-device
	// extent buffers rather than the base shard of the last full upload;
	// their devGrpOff is extent-relative in both placement modes. The
	// bit-sliced kernel walks the partition's transposed groups, one
	// 64-set group per thread.
	grpBuf := idx.devGroupBufs[dev]
	if p.ext > 0 {
		grpBuf = idx.devGrpExts[dev][p.ext-1]
	}
	grpOff := int(p.grpOff)
	if !e.cfg.Replicate || p.ext > 0 {
		grpOff = int(p.devGrpOff)
	}
	globalBase := int(p.off)
	nGroups := p.nGroups()
	nQ := len(b.sigs)
	grid := slicedGrid(nGroups, e.cfg.BlockDim)
	e.obs.Kernel.SlicedBatches.Add(1)

	// Point the slot at this batch's sampled traces before any operation
	// is enqueued (every op carries the slot as its attribution tag, so
	// the OnOp observer finds the right traces even with rival batches
	// interleaved on the stream). The traces were captured at dispatch
	// time (gpuDispatch), NOT re-read from b.queries: on a retry or
	// hedge the rival attempt may already have settled the batch and
	// recycled its queries.
	sl.traced = append(sl.traced[:0], traced...)
	sl.res, sl.fault = nil, nil
	sl.idx, sl.batch, sl.attempt, sl.hedge, sl.chain = idx, b, attempt, hedge, traced

	// Pipeline occupancy: how many batches share the stream right now.
	occ := sc.inflight.Add(1)
	e.obs.Streams.SlotOccupancy.Observe(int64(occ))
	if occ > 1 {
		e.obs.Streams.PipelinedDispatches.Add(1)
	}

	// Arm the straggler budget on the primary chain's first attempt,
	// before any operation is enqueued (the enqueue's channel send
	// publishes the timer to the settling callback). The timer holds its
	// own batch reference and dispatching fence hold; whoever resolves
	// it — the budget firing, or a settle stopping it first — releases
	// them. The timer is created inert and started with Reset only after
	// b.hedgeTimer is assigned: AfterFunc with the real budget could fire
	// — and lead the hedge chain to read b.hedgeTimer in settleBatch —
	// before the assignment of its own return value completes.
	if attempt == 0 && !hedge && e.hedgingEnabled() {
		e.batchRef(b)
		idx.dispatching.Add(1)
		b.timerIdx = idx
		t := time.AfterFunc(time.Hour, func() {
			e.maybeHedge(idx, b, dev, traced)
		})
		b.hedgeTimer = t
		t.Reset(e.hedgeBudget(dev))
	}

	// Query upload: map the batch onto the device's query window ring
	// (unique signatures upload once, the batch carries u32 indices) when
	// the window is enabled and has room; otherwise the dense per-slot
	// upload. The assignment pins the referenced ring slots until the
	// header callback settles them, so no rival batch's fill can
	// overwrite a signature this kernel still reads.
	var win *queryWindow
	if idx.windows != nil {
		win = idx.windows[dev]
	}
	useWin := win != nil && win.assign(sl, b.sigs, &e.obs.Streams)
	if win != nil && !useWin {
		e.obs.Streams.WindowFallbacks.Add(1)
	}
	sl.win = nil
	if useWin {
		sl.win = win
	}
	e.obs.Streams.QuerySlots.Add(int64(nQ))
	var qsrc querySrc
	if useWin {
		e.obs.Streams.H2DQueryBytes.Add(int64(len(sl.winHost)*sigBytes + nQ*4))
		qsrc = querySrc{window: win.buf, qidx: sl.qidx, n: nQ}
	} else {
		e.obs.Streams.H2DQueryBytes.Add(int64(nQ * sigBytes))
		qsrc = querySrc{direct: sl.qbuf, n: nQ}
	}
	enqueueQueries := func() {
		if useWin {
			off := 0
			for _, run := range sl.winRuns {
				gpu.CopyToDeviceAsync(sc.stream, win.buf, run.off, sl.winHost[off:off+run.n], sl)
				off += run.n
			}
			gpu.CopyToDeviceAsync(sc.stream, sl.qidx, 0, sl.qidxHost[:nQ], sl)
		} else {
			gpu.CopyToDeviceAsync(sc.stream, sl.qbuf, 0, b.sigs, sl)
		}
	}

	if e.cfg.SplitOutputLayout {
		// Ablation: two separate id arrays, two result copies.
		kernel := slicedSplitMatchKernelAt(grpBuf,
			grpOff, nGroups, globalBase, qsrc, sl.splitQ, sl.splitS,
			e.cfg.MaxPairsPerBatch, !e.cfg.DisablePrefilter,
			e.partCounters(b.pid), &e.obs.Kernel)
		sc.enqMu.Lock()
		enqueueQueries()
		sc.stream.LaunchZeroedAsync(grid, sl.splitQ, splitHeaderWords, kernel, sl)
		gpu.CopyFromDeviceAsync(sc.stream, sl.splitQ, sl.hdrHost, 0, sl)
		sc.stream.CallbackErr(func(opErr error) {
			sl.settleWin(opErr != nil)
			if opErr != nil {
				sl.fault = opErr
				return
			}
			count, overflow := clampCount(sl.hdrHost[0], sl.hdrHost[1], e.cfg.MaxPairsPerBatch)
			res := e.pools.getResult()
			res.idx, res.batch, res.count, res.overflow = idx, b, count, overflow
			if !overflow {
				res.kind = payloadSplit // payloadCPU (re-run on host) on overflow
			}
			sl.res = res
		})
		// Two exact-size gated copies: the cost the packed layout avoids.
		gpu.CopyFromDeviceGated(sc.stream, sl.splitQ, func() ([]uint32, int) {
			res := sl.res
			if res == nil || res.overflow || res.count == 0 {
				return nil, 0
			}
			res.qIDs = growU32(res.qIDs, res.count)
			return res.qIDs, splitHeaderWords
		}, sl)
		gpu.CopyFromDeviceGated(sc.stream, sl.splitS, func() ([]uint32, int) {
			res := sl.res
			if res == nil || res.overflow || res.count == 0 {
				return nil, 0
			}
			res.sIDs = growU32(res.sIDs, res.count)
			return res.sIDs, 0
		}, sl)
		sc.stream.CallbackErr(sl.completeFn)
		sc.enqMu.Unlock()
		return
	}

	// Packed layout (§3.3.1). The device-side header reset is fused into
	// the launch (LaunchZeroedAsync — the cudaMemsetAsync that used to be
	// a separate tiny H2D copy now rides in the kernel prologue).
	sl.launch = slicedLaunch{
		groups: grpBuf, grpOff: grpOff, nGroups: nGroups, globalBase: globalBase,
		qsrc: qsrc, hdr: sl.hdr, pairs: sl.pairs,
		maxPairs: e.cfg.MaxPairsPerBatch, gate: !e.cfg.DisablePrefilter,
		pf: e.partCounters(b.pid), kc: &e.obs.Kernel,
	}

	if e.cfg.SizeThenCopy {
		// Ablation: the naive scheme — copy the 4-byte size, then issue
		// a second exact-size copy synchronously on the executor (an
		// extra paid transfer and an extra synchronization point per
		// batch, and no pipelining while the executor blocks).
		sc.enqMu.Lock()
		enqueueQueries()
		sc.stream.LaunchZeroedAsync(grid, sl.hdr, resHeaderWords, sl.kernel, sl)
		gpu.CopyFromDeviceAsync(sc.stream, sl.hdr, sl.hdrHost, 0, sl)
		sc.stream.CallbackErr(func(opErr error) {
			sl.settleWin(opErr != nil)
			if opErr != nil {
				sl.release()
				e.batchFault(idx, b, dev, attempt, hedge, traced, opErr)
				return
			}
			count, overflow := clampCount(sl.hdrHost[0], sl.hdrHost[1], e.cfg.MaxPairsPerBatch)
			res := e.pools.getResult()
			res.idx, res.batch, res.count, res.overflow = idx, b, count, overflow
			if !overflow {
				res.kind = payloadPacked
			}
			if !overflow && count > 0 {
				res.packed = growBytes(res.packed, ((count+3)/4)*bytesPerGroup)
				if err := gpu.CopyFromDeviceNow(sc.stream, sl.pairs, res.packed, 0, sl); err != nil {
					e.pools.putResult(res)
					sl.release()
					e.batchFault(idx, b, dev, attempt, hedge, traced, err)
					return
				}
			}
			e.batchOK(dev, b, hedge)
			sl.release()
			e.deliverResult(b, res, hedge)
			e.batchUnref(b)
			idx.dispatching.Done()
		})
		sc.enqMu.Unlock()
		return
	}

	// Pipelined double-buffered result transfer (§3.3.2). The header
	// callback reads the device-side length for free and stages the
	// outcome on the slot; the gated copy then resolves its exact-size
	// destination at the FIFO head and transfers asynchronously on the
	// stream. Nothing here blocks the executor, so the next batch's H2D
	// + kernel — already enqueued behind these ops by a rival slot of
	// the same stream — starts the moment the transfer is issued, and
	// depth batches ride the stream in flight at once.
	sc.enqMu.Lock()
	enqueueQueries()
	sc.stream.LaunchZeroedAsync(grid, sl.hdr, resHeaderWords, sl.kernel, sl)
	sc.stream.CallbackErr(sl.onHeaderFn)
	gpu.CopyFromDeviceGated(sc.stream, sl.pairs, sl.resultDstFn, sl)
	sc.stream.CallbackErr(sl.completeFn)
	sc.enqMu.Unlock()
}

// batchOK records a successful GPU attempt for the dispatching stream's
// device, resetting its circuit breaker (and completing a recovery probe
// when the device was quarantined). Primary attempts also feed the
// device's batch service-time distribution, from which the percentile
// hedge mode derives its straggler budget; hedge attempts are excluded
// so the budget tracks the unhedged baseline.
func (e *Engine) batchOK(dev int, b *openBatch, hedge bool) {
	e.recordDeviceSuccess(dev)
	if !hedge {
		e.health[dev].svc.ObserveDuration(time.Since(b.dispatched))
	}
}

// batchFault handles a batch whose GPU attempt failed (copy, launch, or
// result-transfer error, including a dead device): instead of panicking,
// the failure is charged to the device's circuit breaker and the batch
// is retried once on a stream avoiding that device, then — on a second
// failure — re-run on the host through the same payloadCPU mechanism as
// a result-buffer overflow, so no submitted query is ever lost. A
// failed hedge attempt just detaches: the primary chain still owns the
// delivery guarantee. The caller has already released the stream; the
// retry runs on a fresh goroutine (inheriting this chain's batch
// reference and dispatching hold) because this method executes on the
// stream's executor goroutine, which must not block on stream
// acquisition.
func (e *Engine) batchFault(idx *index, b *openBatch, dev, attempt int, hedge bool, traced []*obs.Trace, err error) {
	e.obs.Faults.GPUFaults.Add(1)
	e.recordDeviceFailure(dev, err)
	if hedge || b.settled.Load() {
		// Nothing left for this chain to save: a hedge never retries,
		// and a primary whose batch a rival already settled would only
		// burn a retry re-computing a delivered result.
		e.batchUnref(b)
		idx.dispatching.Done()
		return
	}
	for _, tr := range traced {
		tr.Degrade("gpu-fault")
	}
	if attempt == 0 {
		e.obs.Faults.BatchRetries.Add(1)
		go e.gpuDispatchAttempt(idx, b, 1, dev, false, traced)
		return
	}
	e.fallbackCPU(idx, b, traced)
	e.batchUnref(b)
	idx.dispatching.Done()
}

// fallbackCPU re-runs a batch on the host after the GPU path gave up on
// it (device failures, quarantine, no usable stream).
func (e *Engine) fallbackCPU(idx *index, b *openBatch, traced []*obs.Trace) {
	e.obs.Faults.CPUFallbacks.Add(1)
	e.logger().Debug("batch falling back to CPU",
		"partition", b.pid, "queries", len(b.queries))
	for _, tr := range traced {
		tr.Degrade("cpu-fallback")
	}
	e.cpuDispatch(idx, b, false)
}

// tagsContained reports whether every stored tag is present in the query
// tag set. Entries stored without tags (AddSignature) cannot be verified
// and are accepted.
func tagsContained(tags []string, qset map[string]struct{}) bool {
	if tags == nil {
		return true
	}
	for _, t := range tags {
		if _, ok := qset[t]; !ok {
			return false
		}
	}
	return true
}

// clampCount interprets the kernel's pair counter and overflow flag.
func clampCount(raw, overflowFlag uint32, maxPairs int) (int, bool) {
	if overflowFlag != 0 || int(raw) > maxPairs {
		return 0, true
	}
	return int(raw), false
}

// reduceWorker implements the key lookup/reduce stage (§3.4): decode
// (query, set) pairs, look up the keys of each set, and append them to
// the owning query, completing queries whose last batch this was.
func (e *Engine) reduceWorker() {
	defer e.reduceWg.Done()
	pprof.Do(context.Background(), pprof.Labels("stage", "reduce"), func(context.Context) {
		for res := range e.reduceCh {
			e.reduceOne(res)
		}
	})
}

// observeGPUOp is the per-stream OnOp observer: it feeds the completed
// device operation into the op-kind histograms and attaches a span to
// every sampled trace of the issuing batch. With pipelined dispatch a
// stream interleaves ops of several batches, so the issuing slot rides
// on the op's attribution tag rather than on per-stream state. Runs on
// the stream's executor goroutine.
func (e *Engine) observeGPUOp(r gpu.OpRecord) {
	if !e.obs.On {
		return
	}
	if h := e.obs.GPUOpHist(r.KindName()); h != nil {
		h.Observe(r.Wait(), r.Service())
	}
	sl, _ := r.Tag.(*streamSlot)
	if sl == nil {
		return
	}
	for _, tr := range sl.traced {
		n := r.Bytes
		if r.Kind == gpu.OpKernel {
			n = int64(r.Blocks)
		}
		tr.Span(r.KindName(), obs.StageSubsetMatch, r.Enqueue, r.Wait(), r.Service(),
			-1, r.Device, r.Stream, n)
	}
}

func (e *Engine) reduceOne(res *batchResult) {
	idx := res.idx
	b := res.batch
	p := &idx.parts[b.pid]
	t0 := time.Now()
	matchDur := t0.Sub(b.dispatched)
	e.matchNs.Add(int64(matchDur))
	if e.obs.On {
		e.obs.SubsetMatch.ObserveDuration(matchDur)
	}
	defer func() {
		reduceDur := time.Since(t0)
		e.reduceNs.Add(int64(reduceDur))
		if e.obs.On {
			e.obs.Reduce.ObserveDuration(reduceDur)
		}
	}()

	// Batch-local reduce: keys accumulate lock-free in per-query-slot
	// scratch (query ids are dense uint8 batch indices), then flush to
	// each touched query under ONE lock acquisition per (query, batch)
	// — not one per (query, set) pair. With selective queries matching
	// hundreds of sets in a partition, per-pair locking made the query
	// mutex the reduce stage's contention point.
	sc := e.pools.getScratch(len(b.queries))
	// Live tombstones from the delta overlay suppress removed keys in
	// the batch output; the fast path (no tombstones pending) is one
	// atomic load. The overlay read lock, when taken, is released right
	// after the payload decode below — before any query completes.
	tombs := e.tombsForReduce()
	patched := idx.patched
	if len(patched) == 0 {
		patched = nil // skip the per-pair probe entirely on a flat CSR
	}
	var nPairs int64 // accumulated locally; one atomic add per batch
	visit := func(qi uint8, setID uint32) {
		nPairs++
		lo, hi := idx.keyOff[setID], idx.keyOff[setID+1]
		rowKeys := idx.keys[lo:hi]
		exact := idx.keyTags != nil && b.queries[qi].tags != nil
		var rowTags [][]string
		if exact {
			rowTags = idx.keyTags[lo:hi]
		}
		if patched != nil {
			// Rows changed by incremental folds override the CSR.
			if pe, ok := patched[setID]; ok {
				rowKeys, rowTags = pe.keys, pe.tags
			}
		}
		ks := sc.keys[qi]
		if tombs == nil && !exact {
			ks = append(ks, rowKeys...)
		} else {
			// Exact verification (§3) — dropping Bloom false positives by
			// re-checking the stored tags against the query's tag set
			// (immutable after submit, so no lock needed here) — and
			// tombstone suppression share the per-entry walk.
			for j := range rowKeys {
				if tombs != nil && e.tombSuppressed(idx.sets[setID], rowKeys, j, tombs) {
					continue
				}
				if exact && !tagsContained(rowTags[j], b.queries[qi].tags) {
					continue
				}
				ks = append(ks, rowKeys[j])
			}
		}
		if len(ks) > 0 && len(sc.keys[qi]) == 0 {
			sc.touched = append(sc.touched, qi)
		}
		sc.keys[qi] = ks
	}

	pc := e.partCounters(b.pid)
	switch res.kind {
	case payloadCPU:
		// GPU result buffer overflowed (or CPU-only mode): run the
		// batch's subset match on the host for correctness.
		if res.overflow {
			e.overflows.Add(1)
			if pc != nil {
				pc.Overflows.Add(1)
			}
		}
		// Host-side bit-sliced match: same flavor as the device kernel,
		// so counters and parity hold across fallbacks.
		e.obs.Kernel.SlicedBatches.Add(1)
		cpuMatchBatchSliced(idx.groups[p.grpOff:int(p.grpOff)+p.nGroups()], int(p.off),
			b.sigs, !e.cfg.DisablePrefilter, pc, &e.obs.Kernel, visit)
	case payloadPacked:
		decodePacked(res.packed, res.count, visit)
	case payloadSplit:
		for i := 0; i < res.count; i++ {
			visit(uint8(res.qIDs[i]), res.sIDs[i])
		}
	}
	if tombs != nil {
		e.delta.mu.RUnlock()
	}

	// Flush the scratch: one lock acquisition per touched query.
	for _, qi := range sc.touched {
		q := b.queries[qi]
		ks := sc.keys[qi]
		q.mu.Lock()
		q.keys = append(q.keys, ks...)
		q.mu.Unlock()
		sc.keys[qi] = ks[:0]
	}
	e.queryLockAcqs.Add(int64(len(sc.touched)))
	sc.touched = sc.touched[:0]
	e.pools.putScratch(sc)

	e.pairs.Add(nPairs)
	if pc != nil {
		pc.Pairs.Add(nPairs)
	}
	if e.obs.Tracing() {
		reduceSoFar := time.Since(t0)
		for _, q := range b.queries {
			if q.trace != nil {
				q.trace.Event("batch-done", int32(b.pid), nPairs)
				// Spans must attach before finish() below publishes the
				// trace; the reduce span therefore measures up to here,
				// missing only the scratch-recycle tail.
				q.trace.Span(obs.StageSubsetMatch, "query", b.dispatched, 0, matchDur,
					int32(b.pid), "", -1, nPairs)
				q.trace.Span(obs.StageReduce, "query", t0, 0, reduceSoFar,
					int32(b.pid), "", -1, nPairs)
			}
		}
	}

	for _, q := range b.queries {
		q.finish(e, 1)
	}
	// Drop the reduce-stage hold; a losing hedge-race attempt may still
	// be running, in which case the last detacher recycles the batch.
	e.batchUnref(b)
	e.pools.putResult(res)
	e.inflightBatches.Add(-1)
	e.notifyProgress()
}
