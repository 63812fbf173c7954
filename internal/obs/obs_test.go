package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Max != 0 || len(s.Buckets) != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := s.Quantile(q); v != 0 {
			t.Fatalf("Quantile(%v) on empty = %d", q, v)
		}
	}
	if s.Mean() != 0 {
		t.Fatalf("Mean on empty = %v", s.Mean())
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(777)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 777 || s.Max != 777 {
		t.Fatalf("snapshot = %+v", s)
	}
	// A single sample must be reported exactly at every quantile (the
	// top bucket reports the exact max).
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := s.Quantile(q); v != 777 {
			t.Fatalf("Quantile(%v) = %d, want 777", q, v)
		}
	}
}

func TestHistogramDuplicatesAndSmallValues(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(5) // below subCount: recorded exactly
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 5 {
		t.Fatalf("p50 of constant 5s = %d", got)
	}
	if got := s.Quantile(0.99); got != 5 {
		t.Fatalf("p99 of constant 5s = %d", got)
	}
	if s.Max != 5 || s.Count != 100 || s.Sum != 500 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	var h Histogram
	h.Observe(-42)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 0 || s.Quantile(1) != 0 {
		t.Fatalf("snapshot after negative observe = %+v", s)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	n := 10000
	for i := 1; i <= n; i++ {
		h.Observe(int64(i) * 1000) // 1µs .. 10ms in ns
	}
	s := h.Snapshot()
	if s.Count != int64(n) {
		t.Fatalf("count = %d", s.Count)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := q * float64(n) * 1000
		got := float64(s.Quantile(q))
		if rel := math.Abs(got-exact) / exact; rel > 0.13 {
			t.Fatalf("Quantile(%v) = %v, exact %v, rel err %.3f > bucket bound", q, got, exact, rel)
		}
		if got < exact*0.999 {
			t.Fatalf("Quantile(%v) = %v underestimates exact %v", q, got, exact)
		}
	}
	if s.Quantile(1) != int64(n)*1000 {
		t.Fatalf("max quantile = %d, want exact max %d", s.Quantile(1), n*1000)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 50; i++ {
		a.Observe(100)
	}
	for i := 0; i < 50; i++ {
		b.Observe(1_000_000)
	}
	a.Merge(&b)
	s := a.Snapshot()
	if s.Count != 100 {
		t.Fatalf("merged count = %d", s.Count)
	}
	if s.Max != 1_000_000 {
		t.Fatalf("merged max = %d", s.Max)
	}
	if got := s.Quantile(0.25); got > 110 {
		t.Fatalf("merged p25 = %d, want ~100", got)
	}
	if got := s.Quantile(0.9); got < 900_000 {
		t.Fatalf("merged p90 = %d, want ~1ms", got)
	}
	// b unchanged.
	if b.Count() != 50 {
		t.Fatalf("merge mutated source: count = %d", b.Count())
	}
}

func TestHistogramMergeEmpty(t *testing.T) {
	var a, b Histogram
	a.Observe(10)
	a.Merge(&b) // merging empty is a no-op
	if s := a.Snapshot(); s.Count != 1 || s.Max != 10 {
		t.Fatalf("snapshot = %+v", s)
	}
	b.Merge(&a) // merging into empty copies
	if s := b.Snapshot(); s.Count != 1 || s.Max != 10 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			v := seed
			for i := 0; i < perWorker; i++ {
				v = v*6364136223846793005 + 1442695040888963407
				h.Observe((v >> 33) & 0xfffff)
			}
		}(int64(w + 1))
	}
	// Concurrent snapshots must not race with recording.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = h.Snapshot().Quantile(0.99)
		}
	}()
	wg.Wait()
	<-done
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d", s.Count, workers*perWorker)
	}
	total := uint64(0)
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != uint64(workers*perWorker) {
		t.Fatalf("bucket total = %d, want %d", total, workers*perWorker)
	}
}

func TestBucketIndexRoundTrip(t *testing.T) {
	// Every value must land in a bucket whose range contains it, with
	// contiguous bucket boundaries.
	for _, v := range []int64{0, 1, 7, 8, 9, 15, 16, 17, 255, 256, 1 << 20, 1<<40 + 12345} {
		idx := bucketIndex(v)
		if up := bucketUpper(idx); v > up {
			t.Fatalf("value %d above its bucket %d upper %d", v, idx, up)
		}
		if idx > 0 {
			if lo := bucketUpper(idx - 1); v <= lo {
				t.Fatalf("value %d at or below previous bucket upper %d (idx %d)", v, lo, idx)
			}
		}
	}
	// Uppers are strictly increasing over the reachable range (the top
	// octaves saturate at MaxInt64).
	for i := 1; i <= bucketIndex(math.MaxInt64); i++ {
		if bucketUpper(i) <= bucketUpper(i-1) {
			t.Fatalf("bucket uppers not strictly increasing at %d", i)
		}
	}
}

func TestPartitions(t *testing.T) {
	var p Partitions
	if p.Get(0) != nil {
		t.Fatal("Get before Reset should be nil")
	}
	if p.Snapshot() != nil || p.Len() != 0 {
		t.Fatal("empty snapshot should be nil")
	}
	p.Reset([]int{10, 20, 30})
	p.Get(1).QueriesRouted.Add(7)
	p.Get(1).Pairs.Add(3)
	p.Get(2).QueriesRouted.Add(2)
	if p.Get(99) != nil {
		t.Fatal("out-of-range Get should be nil")
	}
	snap := p.Snapshot()
	if len(snap) != 3 || snap[1].QueriesRouted != 7 || snap[1].Sets != 20 {
		t.Fatalf("snapshot = %+v", snap)
	}
	hot := p.Hottest(2)
	if len(hot) != 2 || hot[0].ID != 1 || hot[1].ID != 2 {
		t.Fatalf("hottest = %+v", hot)
	}
	// Reset discards the old generation.
	p.Reset([]int{5})
	if got := p.Get(0).QueriesRouted.Load(); got != 0 {
		t.Fatalf("counters survived reset: %d", got)
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(0, 4)
	if tr.Enabled() {
		t.Fatal("every=0 must disable tracing")
	}
	if tr.Maybe() != nil {
		t.Fatal("disabled tracer sampled a query")
	}

	tr = NewTracer(3, 4)
	sampled := 0
	for i := 0; i < 30; i++ {
		if sp := tr.Maybe(); sp != nil {
			sampled++
			sp.Event("preprocess", 2, 5)
			sp.Done(11)
		}
	}
	if sampled != 10 {
		t.Fatalf("sampled %d of 30 with every=3", sampled)
	}
	recent := tr.Recent()
	if len(recent) != 4 {
		t.Fatalf("ring kept %d, want 4", len(recent))
	}
	// Oldest-first ordering.
	for i := 1; i < len(recent); i++ {
		if recent[i].ID <= recent[i-1].ID {
			t.Fatalf("ring not oldest-first: %v", recent)
		}
	}
	rec := recent[0]
	if len(rec.Events) != 2 || rec.Events[0].Stage != "preprocess" || rec.Events[1].Stage != "done" {
		t.Fatalf("events = %+v", rec.Events)
	}
	if rec.Events[1].N != 11 {
		t.Fatalf("done event N = %d", rec.Events[1].N)
	}
}

func TestNilTraceSafe(t *testing.T) {
	var tr *Trace
	tr.Event("x", 0, 0)
	tr.Done(0)
}

func TestPipelineSnapshotAndProm(t *testing.T) {
	p := New(Options{TraceEvery: 1, TopPartitions: 2})
	p.Parts.Reset([]int{4, 4, 4})
	p.Preprocess.ObserveDuration(10 * time.Microsecond)
	p.E2E.ObserveDuration(2 * time.Millisecond)
	p.BatchOccupancy.Observe(100)
	p.Parts.Get(0).QueriesRouted.Add(5)
	p.RegisterGauge("tagmatch_queue_depth", "Queued items per pipeline queue.",
		Labels{{"queue", "input"}}, func() float64 { return 3 })
	sp := p.Tracer.Maybe()
	sp.Event("batch", 1, 42)
	sp.Done(1)

	snap := p.Snapshot(true)
	if len(snap.Stages) != 5 {
		t.Fatalf("stages = %d", len(snap.Stages))
	}
	if snap.Stages[4].Stage != StageE2E || snap.Stages[4].Count != 1 {
		t.Fatalf("e2e stage = %+v", snap.Stages[4])
	}
	if snap.Stages[4].Max != 2*time.Millisecond {
		t.Fatalf("e2e max = %v", snap.Stages[4].Max)
	}
	if len(snap.Partitions) != 3 || len(snap.HotPartitions) != 2 {
		t.Fatalf("partitions = %d hot = %d", len(snap.Partitions), len(snap.HotPartitions))
	}
	if snap.Gauges[`tagmatch_queue_depth{queue="input"}`] != 3 {
		t.Fatalf("gauges = %v", snap.Gauges)
	}
	if len(snap.Traces) != 1 {
		t.Fatalf("traces = %d", len(snap.Traces))
	}

	var sb strings.Builder
	p.WriteProm(NewPromWriter(&sb))
	out := sb.String()
	for _, want := range []string{
		`# TYPE tagmatch_stage_duration_seconds histogram`,
		`tagmatch_stage_duration_seconds_bucket{stage="e2e",le="+Inf"} 1`,
		`tagmatch_stage_duration_seconds_count{stage="e2e"} 1`,
		`tagmatch_batch_occupancy_queries_count 1`,
		`tagmatch_queue_depth{queue="input"} 3`,
		`tagmatch_partition_queries_routed_total{partition="0"} 5`,
		`tagmatch_partition_series_truncated 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE headers must appear exactly once per family.
	if strings.Count(out, "# TYPE tagmatch_stage_duration_seconds histogram") != 1 {
		t.Fatalf("duplicate family header:\n%s", out)
	}
	// Bucket counts must be cumulative and end at the +Inf bucket.
	if !strings.Contains(out, `le="+Inf"`) {
		t.Fatalf("missing +Inf bucket:\n%s", out)
	}
}

func TestKernelCountersSnapshotAndProm(t *testing.T) {
	p := New(Options{})
	p.Kernel.SlicedBatches.Add(3)
	p.Kernel.GateChecks.Add(10)
	p.Kernel.GatePruned.Add(4)
	p.Kernel.GroupScans.Add(6)
	p.Kernel.ColumnsWalked.Add(90)
	p.Kernel.Columns.Observe(90)

	snap := p.Snapshot(false)
	k := snap.Kernel
	if k.SlicedBatches != 3 || k.GateChecks != 10 ||
		k.GatePruned != 4 || k.GroupScans != 6 || k.ColumnsWalked != 90 {
		t.Fatalf("kernel snapshot = %+v", k)
	}
	if k.Columns.Count != 1 {
		t.Fatalf("columns histogram count = %d", k.Columns.Count)
	}

	var sb strings.Builder
	p.WriteProm(NewPromWriter(&sb))
	out := sb.String()
	for _, want := range []string{
		`tagmatch_kernel_batches_total{flavor="sliced"} 3`,
		`tagmatch_kernel_gate_checks_total 10`,
		`tagmatch_kernel_gate_pruned_total 4`,
		`tagmatch_kernel_group_scans_total 6`,
		`tagmatch_kernel_columns_walked_total 90`,
		`# TYPE tagmatch_kernel_columns_per_block histogram`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE tagmatch_kernel_batches_total counter") != 1 {
		t.Fatalf("duplicate kernel family header:\n%s", out)
	}
	// The engine runs one kernel flavor; no scalar series is exported.
	if strings.Contains(out, `tagmatch_kernel_batches_total{flavor="scalar"}`) {
		t.Fatalf("dead scalar kernel series exported:\n%s", out)
	}
}

func TestDisabledPipeline(t *testing.T) {
	p := New(Options{Disabled: true, TraceEvery: 5})
	if p.On {
		t.Fatal("disabled pipeline has On set")
	}
	if p.Tracing() {
		t.Fatal("disabled pipeline traces")
	}
	snap := p.Snapshot(true)
	if len(snap.Stages) != 5 {
		t.Fatal("disabled pipeline must still snapshot")
	}
}
