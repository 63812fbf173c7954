package main

import (
	"sync"
	"sync/atomic"
	"time"

	"tagmatch"
	"tagmatch/internal/workload"
)

// window runs one workload's load and records it. The load runs without
// a break through three phases: a warm-up that fills pools, query
// windows and stream slots; the measured interval [from, end); and a
// cool-down that keeps the load on until every measured query has
// finished, so no measured query sees the pipeline emptying. Timestamps
// are ns since the run's origin. A query's latency runs from sched to
// done: sched is its submit call in the closed loops and its due time in
// the open loop, so a stall that delays later sends is charged to them.
// done stays 0 for a query that failed or was never sent.
type window struct {
	origin    time.Time
	traced    bool
	from, end int64

	// qs are the distinct queries; query id sends qs[id%len(qs)]. The
	// engine keeps no per-query state beyond its 16-batch query window,
	// so a list far longer than that is fresh to it even when cycled.
	qs [][]string

	sched, sent, ret, done []int64 // per query id; sent and ret only when traced
	queries                int     // ids handed out, at most len(sched)
	failed                 atomic.Int64
	pending                atomic.Int64 // measured queries not yet finished

	usched, ustart, udone []int64 // per measured update; ustart only when traced
	updates               int

	keep    [][]tagmatch.Key // every keepEvery-th query's answer, by id/keepEvery
	answers []answer         // churn probes, in update order

	// onOpen and onClose run once each, on a load goroutine, as the
	// measured interval opens and closes.
	onOpen, onClose func()

	// Traced churn polls Stats for the overlay's largest live size.
	liveMax int64
	polls   int
}

// newWindow prepares a window sending from qs, with room for queries
// query ids and updates measured updates.
func newWindow(origin time.Time, traced bool, qs [][]string, queries, updates int) *window {
	w := &window{
		origin:  origin,
		traced:  traced,
		qs:      qs,
		sched:   make([]int64, queries),
		done:    make([]int64, queries),
		usched:  make([]int64, updates),
		udone:   make([]int64, updates),
		keep:    make([][]tagmatch.Key, queries/keepEvery+1),
		onOpen:  func() {},
		onClose: func() {},
	}
	if traced {
		w.sent = make([]int64, queries)
		w.ret = make([]int64, queries)
		w.ustart = make([]int64, updates)
	}
	return w
}

func (w *window) now() int64 { return int64(time.Since(w.origin)) }

// start places the measured interval after the warm-up and returns the
// time the load starts.
func (w *window) start(warm, d time.Duration) int64 {
	t := w.now()
	w.from = t + int64(warm)
	w.end = w.from + int64(d)
	return t
}

func (w *window) query(id int) []string { return w.qs[id%len(w.qs)] }

// measured reports whether query id was sent inside the interval.
func (w *window) measured(id int) bool {
	return w.sched[id] >= w.from && w.sched[id] < w.end
}

// issue records that query id is sent at t.
func (w *window) issue(id int, t int64) {
	w.sched[id] = t
	w.queries = id + 1
	if w.measured(id) {
		w.pending.Add(1)
	}
}

// complete records a query's outcome; for streamed queries it runs on
// engine goroutines, once per id.
func (w *window) complete(id int, r tagmatch.MatchResult) {
	if r.Err == nil {
		w.done[id] = w.now()
		if id%keepEvery == 0 {
			w.keep[id/keepEvery] = r.Keys
		}
	}
	if w.measured(id) {
		if r.Err != nil {
			w.failed.Add(1)
		}
		w.pending.Add(-1)
	}
}

// submit streams query id; release runs once the query is finished,
// whether or not the engine accepted it.
func (w *window) submit(eng *tagmatch.Engine, id int, release func()) {
	err := eng.SubmitUnique(w.query(id), func(r tagmatch.MatchResult) {
		w.complete(id, r)
		release()
	})
	if w.traced {
		w.ret[id] = w.now()
	}
	if err != nil {
		w.complete(id, tagmatch.MatchResult{Err: err})
		release()
	}
}

// stream is the closed loop of the stream workload: one goroutine keeps
// depth SubmitUnique calls outstanding.
func (w *window) stream(eng *tagmatch.Engine, depth int, warm, d time.Duration) {
	sem := make(chan struct{}, depth)
	release := func() { <-sem }
	w.start(warm, d)
	opened, closed := false, false
	for id := range w.sched {
		sem <- struct{}{}
		t := w.now()
		if !opened && t >= w.from {
			opened = true
			w.onOpen()
		}
		if t >= w.end {
			if !closed {
				closed = true
				w.onClose()
			}
			if w.pending.Load() == 0 {
				<-sem
				break
			}
		}
		w.issue(id, t)
		w.submit(eng, id, release)
	}
	for range depth {
		sem <- struct{}{}
	}
}

// rpc is the closed loop of the rpc workload: clients goroutines each
// call blocking MatchUnique, the tagmatch-server /match path.
func (w *window) rpc(eng *tagmatch.Engine, clients int, warm, d time.Duration) {
	var next atomic.Int64
	var wg sync.WaitGroup
	var opened, closed sync.Once
	w.start(warm, d)
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				id := int(next.Add(1) - 1)
				t := w.now()
				if t >= w.from {
					opened.Do(w.onOpen)
				}
				if id >= len(w.sched) || t >= w.end {
					closed.Do(w.onClose)
					return
				}
				w.sched[id] = t
				keys, err := eng.MatchUnique(w.query(id))
				w.complete(id, tagmatch.MatchResult{Keys: keys, Err: err})
			}
		}()
	}
	wg.Wait()
	w.queries = min(int(next.Load()), len(w.sched))
}

// livePoll is how often traced churn reads the overlay's live size.
const livePoll = 50 * time.Millisecond

// churnLoad is the update side of the churn workload: the operations in
// order, the model rows they apply to, and the probe queries.
type churnLoad struct {
	ops  []update
	rows []workload.Interest
	// probes[i] is asked right after update (i+1)*probeEvery.
	probes     [][]string
	probeEvery int
	// prefill is how many of ops are applied before the load starts.
	prefill int
}

// apply sends one update to the engine.
func (cl *churnLoad) apply(eng *tagmatch.Engine, op update) {
	in := cl.rows[op.row]
	if op.add {
		eng.AddSet(in.Tags, tagmatch.Key(in.User))
	} else {
		eng.RemoveSet(in.Tags, tagmatch.Key(in.User))
	}
}

// churn is the open loop of the churn workload: one goroutine sends
// queries at qps and, over the measured interval, another applies the
// updates after the prefill at ups, each on a fixed schedule whatever
// the engine does. After every probeEvery-th update the update
// goroutine asks a blocking probe query, whose answer the exactness
// gate checks against the model with exactly the updates so far applied.
// A traced run adds a third goroutine that reads Stats every livePoll,
// off the senders' schedule.
func (w *window) churn(eng *tagmatch.Engine, qps float64, cl *churnLoad, ups float64, warm, d time.Duration) {
	var wg, inflight sync.WaitGroup
	t0 := w.start(warm, d)
	wg.Add(2)
	go func() {
		defer wg.Done()
		opened, closed := false, false
		for id := range w.sched {
			due := t0 + int64(float64(id)*1e9/qps)
			if due >= w.end && w.pending.Load() == 0 {
				break
			}
			w.waitUntil(due)
			if !opened && due >= w.from {
				opened = true
				w.onOpen()
			}
			if !closed && due >= w.end {
				closed = true
				w.onClose()
			}
			inflight.Add(1)
			w.issue(id, due)
			if w.traced {
				w.sent[id] = w.now()
			}
			w.submit(eng, id, inflight.Done)
		}
	}()
	if w.traced {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := w.from; t < w.end; t += int64(livePoll) {
				w.waitUntil(t)
				st := eng.Stats()
				w.liveMax = max(w.liveMax, st.DeltaAdds+st.DeltaTombstones)
				w.polls++
			}
		}()
	}
	go func() {
		defer wg.Done()
		w.waitUntil(w.from)
		for k, op := range cl.ops[cl.prefill:] {
			due := w.from + int64(float64(k)*1e9/ups)
			if due >= w.end || k >= len(w.usched) {
				break
			}
			w.waitUntil(due)
			w.usched[k] = due
			if w.traced {
				w.ustart[k] = w.now()
			}
			cl.apply(eng, op)
			w.udone[k] = w.now()
			w.updates = k + 1
			if at := cl.prefill + k + 1; at%cl.probeEvery == 0 {
				tags := cl.probes[at/cl.probeEvery-1]
				keys, err := eng.MatchUnique(tags)
				if err != nil {
					w.failed.Add(1)
					continue
				}
				w.answers = append(w.answers, answer{tags: tags, got: keys, at: at})
			}
		}
	}()
	wg.Wait()
	inflight.Wait()
}

// waitUntil sleeps until t ns since origin; a generator that is behind
// schedule does not sleep and sends at once.
func (w *window) waitUntil(t int64) {
	if d := t - w.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// latencies returns the measured queries' latencies in ms, unsorted.
func (w *window) latencies() []float64 {
	var out []float64
	for id := range w.queries {
		if w.measured(id) && w.done[id] > 0 {
			out = append(out, float64(w.done[id]-w.sched[id])/1e6)
		}
	}
	return out
}

// updateLatencies returns the measured updates' latencies in ms, from
// their scheduled times.
func (w *window) updateLatencies() []float64 {
	out := make([]float64, w.updates)
	for k := range out {
		out[k] = float64(w.udone[k]-w.usched[k]) / 1e6
	}
	return out
}

// qps is the queries completed inside the interval per second of it.
func (w *window) qps() float64 {
	n := 0
	for id := range w.queries {
		if w.done[id] >= w.from && w.done[id] < w.end {
			n++
		}
	}
	return float64(n) / (float64(w.end-w.from) / 1e9)
}

// keptAnswers returns the kept answers with their queries.
func (w *window) keptAnswers() []answer {
	var out []answer
	for i, keys := range w.keep {
		id := i * keepEvery
		if id < w.queries && w.done[id] > 0 {
			out = append(out, answer{tags: w.query(id), got: keys})
		}
	}
	return out
}
