package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"tagmatch"
	"tagmatch/internal/bitvec"
	"tagmatch/internal/bloom"
	"tagmatch/internal/core"
	"tagmatch/internal/gpu"
	"tagmatch/internal/obs"
)

const (
	// maxP and smWorkers are the engine defaults the isolated layer
	// benchmarks reproduce: core.Config's MAX_P of Algorithm 1 and
	// tagmatch.Config's SM workers per simulated device.
	maxP      = 1024
	smWorkers = 4
	// Queries fed to the isolated layer benchmarks.
	microRouteQueries  = 2000
	microKernelQueries = 1000
)

// snapshot is the engine's cumulative telemetry at one instant: Stats,
// per-device counters, the Obs histograms, and the process's memory and
// CPU use. A window's figures are the difference of two snapshots.
type snapshot struct {
	at   int64
	st   tagmatch.Stats
	dev  []tagmatch.DeviceStat
	hist map[string]obs.HistSnapshot
	mem  runtime.MemStats
	cpu  time.Duration
}

func takeSnapshot(eng *tagmatch.Engine, origin time.Time) snapshot {
	o := eng.Obs()
	s := snapshot{
		at:  int64(time.Since(origin)),
		st:  eng.Stats(),
		dev: eng.DeviceStats(),
		hist: map[string]obs.HistSnapshot{
			"input wait":     o.InputWait.Snapshot(),
			"preprocess":     o.Preprocess.Snapshot(),
			"batch wait":     o.BatchWait.Snapshot(),
			"h2d.wait":       o.GPUH2D.Wait.Snapshot(),
			"h2d.service":    o.GPUH2D.Service.Snapshot(),
			"kernel.wait":    o.GPUKernel.Wait.Snapshot(),
			"kernel.service": o.GPUKernel.Service.Snapshot(),
			"d2h.wait":       o.GPUD2H.Wait.Snapshot(),
			"d2h.service":    o.GPUD2H.Service.Snapshot(),
			"reduce":         o.Reduce.Snapshot(),
			"merge":          o.Merge.Snapshot(),
			"occupancy":      o.BatchOccupancy.Snapshot(),
			"swap pause":     o.Delta.SwapPause.Snapshot(),
		},
	}
	runtime.ReadMemStats(&s.mem)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

// window returns the samples one Obs histogram recorded in the
// session's measured interval.
func (s *session) window(name string) obs.HistSnapshot {
	return histDelta(s.before.hist[name], s.after.hist[name])
}

// p50us is the window's median of one Obs histogram, in µs.
func p50us(s *session, name string) float64 {
	return float64(s.window(name).Quantile(0.5)) / 1e3
}

// micro holds the isolated layer costs measured on the run's own
// dataset and queries.
type micro struct {
	sigNs, routeNs, kernelNs float64
	sigN, routeN, kernelN    int
}

// microbench times bloom.Signature, core.RoutingBenchmark and
// core.KernelBenchmark on the run's database and queries, so the
// end-to-end figures can be explained from isolated layer costs. A
// kernel that disagrees with its brute-force reference fails the gate.
func (b *bench) microbench() (micro, error) {
	var m micro
	seen := map[bitvec.Vector]bool{}
	var sigs []bitvec.Vector
	for _, s := range b.ref.sigs[:len(b.ds.db)] {
		if !seen[s] {
			seen[s] = true
			sigs = append(sigs, s)
		}
	}
	qs := b.qs[:min(len(b.qs), 20000)]
	qsigs := make([]bitvec.Vector, len(qs))
	t := time.Now()
	for i, q := range qs {
		qsigs[i] = bloom.Signature(q)
	}
	m.sigNs, m.sigN = float64(time.Since(t))/float64(len(qs)), len(qs)

	rq := qsigs[:min(len(qsigs), microRouteQueries)]
	_, m.routeNs, _ = core.RoutingBenchmark(sigs, maxP, rq, 5)
	m.routeN = 5 * len(rq)

	kq := qsigs[:min(len(qsigs), microKernelQueries)]
	kr := core.KernelBenchmark(sigs, maxP, kq, 256, 0, 2, smWorkers)
	m.kernelNs, m.kernelN = kr.SlicedNs, 2*len(kq)
	if !kr.Parity {
		return m, fmt.Errorf("kernel benchmark: %w", errMismatch)
	}
	return m, nil
}

// traced is the traced run: an untraced session as the reference, then
// a session with harness spans and the engine's sampled traces on. It
// reports the per-layer metrics, prints the layer budget and writes the
// spans out.
func (b *bench) traced() error {
	d := time.Duration(b.opts.seconds) * time.Second
	ref, err := b.measure(engineConfig(0), false, false, d)
	if err != nil {
		return err
	}
	gateErr := b.check(ref)
	runtime.GC()
	s, err := b.measure(engineConfig(traceEvery), true, true, d)
	if err != nil {
		return err
	}
	if err := b.check(s); err != nil {
		gateErr = err
	}
	mb, err := b.microbench()
	if err != nil {
		gateErr = err
	}
	m := b.perLayer(s, ref, mb)
	b.budget(s, m)
	if err := b.writeSpans(s); err != nil {
		return err
	}
	if rerr := report(b.out, b.spec.PerLayer, m, gateErr == nil, b.attempted(s), s.w.failed.Load()); rerr != nil {
		return rerr
	}
	return gateErr
}

// perLayer computes the per-layer metrics of a traced session: Δs of the
// engine's exported counters over the window, per completed query where
// a rate is meant, plus the harness's own timings and the isolated
// layer costs.
func (b *bench) perLayer(s, ref *session, mb micro) metrics {
	st0, st1 := s.before.st, s.after.st
	q := float64(st1.QueriesCompleted - st0.QueriesCompleted)
	nq := int(q)
	perQ := func(a, b int64) metric { return metric{ratio(float64(b-a), q), nq} }
	frac := func(num, den int64) metric { return metric{ratio(float64(num), float64(den)), int(den)} }
	batches := st1.BatchesDispatched - st0.BatchesDispatched
	winNs := float64(s.after.at - s.before.at)

	var dev gpuDelta
	for i := range s.after.dev {
		dev.add(s.before.dev[i].Stats, s.after.dev[i].Stats)
	}

	w := s.w
	var submit, lag []float64
	for id := range w.queries {
		if w.ret[id] == 0 || !w.measured(id) {
			continue
		}
		start := w.sched[id]
		if b.opts.workload == "churn" {
			start = w.sent[id]
			lag = append(lag, float64(w.sent[id]-w.sched[id])/1e6)
		}
		submit = append(submit, float64(w.ret[id]-start)/1e3)
	}
	for k := range w.updates {
		lag = append(lag, float64(w.ustart[k]-w.usched[k])/1e6)
	}

	upd := w.updateLatencies()
	pause := s.window("swap pause")
	var overhead float64
	if b.opts.workload == "stream" {
		overhead = ratio(ref.w.qps()-w.qps(), ref.w.qps())
	} else {
		p0, p1 := median(ref.w.latencies()), median(w.latencies())
		overhead = ratio(p1-p0, p0)
	}

	m := metrics{
		"admission.submit_call_p99_us": {quantile(submit, 0.99), len(submit)},
		"bloom.sig_ns_per_query":       {mb.sigNs, mb.sigN},
		"route.ns_per_query":           {mb.routeNs, mb.routeN},
		"route.partitions_per_query":   perQ(st0.PartitionsSearched, st1.PartitionsSearched),
		"route.appends_per_lock": frac(st1.RouteAppends-st0.RouteAppends,
			st1.RouteMergeLocks-st0.RouteMergeLocks),
		"batch.per_query":    perQ(st0.BatchesDispatched, st1.BatchesDispatched),
		"batch.occupancy":    {s.window("occupancy").Mean(), int(batches)},
		"batch.timeout_frac": frac(st1.BatchesTimedOut-st0.BatchesTimedOut, batches),
		"batch.wait_p50_ms":  {p50us(s, "batch wait") / 1e3, int(batches)},
		"input.wait_p50_us":  {p50us(s, "input wait"), nq},
		"window.hit_frac": frac(st1.WindowHits-st0.WindowHits,
			st1.WindowHits-st0.WindowHits+st1.WindowMisses-st0.WindowMisses),
		"window.h2d_query_bytes_per_query": perQ(st0.H2DQueryBytes, st1.H2DQueryBytes),
		"window.fallbacks":                 {float64(st1.WindowFallbacks - st0.WindowFallbacks), int(batches)},
		"kernel.ns_per_query":              {mb.kernelNs, mb.kernelN},
		"kernel.gate_prune_frac": frac(st1.KernelGatePruned-st0.KernelGatePruned,
			st1.KernelGateChecks-st0.KernelGateChecks),
		"kernel.columns_per_scan": frac(st1.KernelColumnsWalked-st0.KernelColumnsWalked,
			st1.KernelGroupScans-st0.KernelGroupScans),
		"kernel.pairs_per_query":   perQ(st0.PairsProduced, st1.PairsProduced),
		"kernel.overflow_frac":     frac(st1.ResultOverflows-st0.ResultOverflows, batches),
		"gpu.launches_per_query":   {ratio(dev.launches, q), nq},
		"gpu.h2d_copies_per_query": {ratio(dev.h2dCopies, q), nq},
		"gpu.d2h_copies_per_query": {ratio(dev.d2hCopies, q), nq},
		"gpu.h2d_bytes_per_query":  {ratio(dev.h2dBytes, q), nq},
		"gpu.d2h_bytes_per_query":  {ratio(dev.d2hBytes, q), nq},
		"gpu.sm_busy_frac":         {ratio(dev.smBusyNs, winNs*float64(len(s.after.dev)*smWorkers)), len(s.after.dev)},
		"gpu.overlap_frac":         {ratio(dev.overlapNs, dev.kernelNs), len(s.after.dev)},
		"reduce.ns_per_query":      {ratio(float64(st1.ReduceTime-st0.ReduceTime), q), nq},
		"reduce.keys_per_query":    perQ(st0.KeysDelivered, st1.KeysDelivered),
		"reduce.p50_us":            {p50us(s, "reduce"), int(batches)},
		"preprocess.p50_us":        {p50us(s, "preprocess"), nq},
		"merge.p50_us":             {p50us(s, "merge"), nq},
		"host.preprocess_busy_s":   {(st1.PreprocessTime - st0.PreprocessTime).Seconds(), nq},
		"host.reduce_busy_s":       {(st1.ReduceTime - st0.ReduceTime).Seconds(), int(batches)},
		"device.sm_busy_s":         {dev.smBusyNs / 1e9, len(s.after.dev)},
		"process.cpu_s":            {(s.after.cpu - s.before.cpu).Seconds(), 1},
		"delta.matches_per_query":  perQ(st0.DeltaMatches, st1.DeltaMatches),
		"delta.tomb_suppressed":    {float64(st1.TombstoneSuppressed - st0.TombstoneSuppressed), nq},
		"delta.live_max":           {float64(w.liveMax), w.polls},
		"fold.count":               {float64(s.folds), 1},
		"fold.incremental":         {float64(st1.IncrementalFolds - st0.IncrementalFolds), int(s.folds)},
		"fold.swap_pause_p50_ms":   {float64(pause.Quantile(0.5)) / 1e6, int(pause.Count)},
		"fold.swap_pause_max_ms":   {float64(pause.Quantile(1)) / 1e6, int(pause.Count)},
		"setup.add_s":              {median([]float64{ref.setup.loadS(), s.setup.loadS()}), 2},
		"setup.consolidate_s":      {median([]float64{ref.setup.consolidateS(), s.setup.consolidateS()}), 2},
		"faults.cpu_fallbacks":     {float64(st1.CPUFallbacks - st0.CPUFallbacks), int(batches)},
		"faults.batch_retries":     {float64(st1.BatchRetries - st0.BatchRetries), int(batches)},
		"go.allocs_per_query":      {ratio(float64(s.after.mem.Mallocs-s.before.mem.Mallocs), q), nq},
		"go.bytes_per_query":       {ratio(float64(s.after.mem.TotalAlloc-s.before.mem.TotalAlloc), q), nq},
		"go.gc_pause_ms":           {float64(s.after.mem.PauseTotalNs-s.before.mem.PauseTotalNs) / 1e6, int(s.after.mem.NumGC - s.before.mem.NumGC)},
		"update.p50_ms":            {quantile(upd, 0.5), len(upd)},
		"update.p99_ms":            {quantile(upd, 0.99), len(upd)},
		"harness.lag_p99_ms":       {quantile(lag, 0.99), len(lag)},
		"trace.overhead_frac":      {overhead, nq},
	}
	for _, k := range []string{"h2d", "kernel", "d2h"} {
		m["gpu."+k+".wait_p50_us"] = metric{p50us(s, k+".wait"), int(batches)}
		m["gpu."+k+".service_p50_us"] = metric{p50us(s, k+".service"), int(batches)}
	}
	return m
}

// gpuDelta sums the per-device counter differences over a window.
type gpuDelta struct {
	launches, h2dCopies, d2hCopies, h2dBytes, d2hBytes float64
	smBusyNs, kernelNs, overlapNs                      float64
}

func (g *gpuDelta) add(a, b gpu.Stats) {
	g.launches += float64(b.KernelLaunches - a.KernelLaunches)
	g.h2dCopies += float64(b.CopiesHtoD - a.CopiesHtoD)
	g.d2hCopies += float64(b.CopiesDtoH - a.CopiesDtoH)
	g.h2dBytes += float64(b.BytesHtoD - a.BytesHtoD)
	g.d2hBytes += float64(b.BytesDtoH - a.BytesDtoH)
	g.smBusyNs += float64(b.SMBusyNs - a.SMBusyNs)
	g.kernelNs += float64(b.KernelActiveNs - a.KernelActiveNs)
	g.overlapNs += float64(b.OverlapNs - a.OverlapNs)
}

// budget prints the serial layer budget of the traced window: each
// layer's median beside the end-to-end median, and the share of the
// end-to-end median the layers leave unexplained. The layers are
// per-query and per-batch medians of concurrent work, so they need not
// add up; a gap over 10% is flagged, not fixed.
func (b *bench) budget(s *session, m metrics) {
	layers := []struct {
		name string
		us   float64
	}{
		{"input wait", p50us(s, "input wait")},
		{"preprocess", p50us(s, "preprocess")},
		{"batch wait", p50us(s, "batch wait")},
		{"h2d", p50us(s, "h2d.wait") + p50us(s, "h2d.service")},
		{"kernel", p50us(s, "kernel.wait") + p50us(s, "kernel.service")},
		{"d2h", p50us(s, "d2h.wait") + p50us(s, "d2h.service")},
		{"reduce", p50us(s, "reduce")},
		{"merge", p50us(s, "merge")},
	}
	lat := s.w.latencies()
	e2e := median(lat) * 1e3
	sum := 0.0
	for _, l := range layers {
		sum += l.us
		b.logf("budget %-10s p50 %10.1f us  %5.1f%% of e2e", l.name, l.us, 100*ratio(l.us, e2e))
	}
	gap := ratio(e2e-sum, e2e)
	flag := ""
	if gap > 0.10 || gap < -0.10 {
		flag = "  [FLAG: layers and e2e differ by more than 10%]"
	}
	b.logf("budget %-10s p50 %10.1f us  (e2e p50_ms over %d queries)", "e2e", e2e, len(lat))
	b.logf("budget gap_frac %.3f%s", gap, flag)
	m["budget.gap_frac"] = metric{gap, len(lat)}
}

// writeSpans writes the traced session's harness spans, in Chrome trace
// event format (open in Perfetto), to <out>/<workload>.trace.json along
// with the engine's sampled traces. Spans of one query share its id.
func (b *bench) writeSpans(s *session) (err error) {
	if err := os.MkdirAll(b.opts.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(b.opts.out, b.opts.workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	first := true
	emit := func(name string, tid int, id string, start, end int64) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		fmt.Fprintf(bw, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%q}}`,
			name, tid, float64(start)/1e3, float64(end-start)/1e3, id)
		bw.WriteByte('\n')
	}
	bw.WriteString(`{"traceEvents":[`)
	emit("setup.load", 0, "setup", s.setup.load[0], s.setup.load[1])
	emit("setup.consolidate", 0, "setup", s.setup.consolidate[0], s.setup.consolidate[1])
	w := s.w
	for id := range w.queries {
		qid := fmt.Sprintf("q%d", id)
		if w.ret[id] > 0 {
			start := w.sched[id]
			if w.sent != nil && w.sent[id] > 0 {
				start = w.sent[id]
			}
			emit("submit", 1, qid, start, w.ret[id])
		}
		if w.done[id] > 0 {
			name := "query"
			if b.opts.workload == "rpc" {
				name = "match"
			}
			emit(name, 2, qid, w.sched[id], w.done[id])
		}
	}
	for k := range w.updates {
		emit("update", 3, fmt.Sprintf("u%d", s.prefill+k), w.usched[k], w.udone[k])
	}
	bw.WriteString(`],"engineTraces":`)
	if err := json.NewEncoder(bw).Encode(s.engineTraces); err != nil {
		return err
	}
	bw.WriteString("}\n")
	if err := bw.Flush(); err != nil {
		return err
	}
	b.logf("spans: %s", path)
	return nil
}
