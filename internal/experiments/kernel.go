package experiments

import (
	"encoding/json"
	"io"
	"runtime"
	"sync"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/core"
	"tagmatch/internal/gpu"
)

// KernelRun is the end-to-end engine measurement of the match-kernel
// experiment: the achieved throughput of the shipping (bit-sliced)
// engine and its group-gate and column-walk telemetry.
type KernelRun struct {
	QPS     float64   `json:"qps"`
	RunsQPS []float64 `json:"runs_qps"`
	Keys    int64     `json:"keys"`

	GateChecks    int64 `json:"gate_checks"`
	GatePruned    int64 `json:"gate_pruned"`
	GroupScans    int64 `json:"group_scans"`
	ColumnsWalked int64 `json:"columns_walked"`
}

// KernelResult is the JSON shape of the match-kernel comparison
// (BENCH_kernel.json): the isolated subset-match kernel cost per query
// for the scalar per-thread kernel (kept as a reference oracle) vs. the
// bit-sliced column-transposed kernel the engine ships, the end-to-end
// throughput of the engine, and the correctness re-checks it must pass.
type KernelResult struct {
	Partitions int `json:"partitions"`
	Batches    int `json:"batches"`
	Queries    int `json:"queries"`

	ScalarNsPerQuery float64 `json:"scalar_kernel_ns_per_query"`
	SlicedNsPerQuery float64 `json:"sliced_kernel_ns_per_query"`
	// Speedup is scalar/sliced kernel time; the acceptance bar for the
	// bit-sliced kernel is ≥ 2.
	Speedup float64 `json:"kernel_speedup"`

	// ExpectedKeys is the brute-force key count of the end-to-end query
	// stream: for every query, one key per database signature it
	// contains.
	ExpectedKeys int64 `json:"expected_keys"`
	// ResultsMatch: both kernel flavors emitted exactly the brute-force
	// reference pairs in the isolated benchmark AND the end-to-end
	// engine returned exactly ExpectedKeys matched keys.
	ResultsMatch bool `json:"results_match"`
	// ChaosResultsMatch: the engine under injected GPU faults (one
	// device death plus 5% op faults on survivors, the chaos
	// experiment's fault plan) still returned exactly ExpectedKeys — the
	// degradation ladder's CPU re-runs use the sliced host path too.
	ChaosResultsMatch bool `json:"chaos_results_match"`

	// Work telemetry from the isolated parity pass: how often the
	// per-group gate fired and how many column words a surviving scan
	// actually walked (of bitvec.W per full scan).
	GatePruneRate  float64 `json:"gate_prune_rate"`
	ColumnsPerScan float64 `json:"columns_per_scan"`

	E2E KernelRun `json:"e2e"`
}

// Kernel measures the subset-match kernel: the bit-sliced
// column-transposed kernel against the scalar per-thread kernel of
// Algorithms 3 and 4 in isolation (core.KernelBenchmark: identical
// routing, batching, and result path; only the match loop differs),
// then the end-to-end throughput of the engine, which runs the sliced
// kernel only, and finally its exactness under the chaos experiment's
// fault plan. Both engine runs are checked against a brute-force key
// count. Medians of repeated runs are reported.
func Kernel(p Params) (*Table, *KernelResult) {
	ds := BuildDataset(p)

	// Isolated kernel cost over the full dataset slice. Each rep runs
	// both flavors back to back over identical batches, so host drift
	// hits both equally; per-flavor medians are taken across reps.
	benchSigs, _ := ds.Slice(1.0)
	benchQueries := ds.Queries(2048, 1.0, -1, p.Seed+5000)
	const reps = 5
	iters := p.Queries / len(benchQueries)
	if iters < 1 {
		iters = 1
	}
	var scalarNs, slicedNs []float64
	parity := true
	var last core.KernelBenchResult
	for rep := 0; rep < reps; rep++ {
		r := core.KernelBenchmark(benchSigs, ds.BaseMaxP(), benchQueries,
			0 /* max batch */, 256, iters, simWorkersPerGPU(1))
		scalarNs = append(scalarNs, r.ScalarNs)
		slicedNs = append(slicedNs, r.SlicedNs)
		parity = parity && r.Parity
		last = r
	}
	scMed, slMed := medianFloat(scalarNs), medianFloat(slicedNs)

	res := &KernelResult{
		Partitions:       last.Partitions,
		Batches:          last.Batches,
		Queries:          p.Queries,
		ScalarNsPerQuery: scMed,
		SlicedNsPerQuery: slMed,
		Speedup:          scMed / slMed,
	}
	if last.GateChecks > 0 {
		res.GatePruneRate = float64(last.GatePruned) / float64(last.GateChecks)
	}
	if last.GroupScans > 0 {
		res.ColumnsPerScan = float64(last.ColumnsWalked) / float64(last.GroupScans)
	}

	t := &Table{
		ID:    "kernel",
		Title: "Bit-sliced subset-match kernel: kernel cost and end-to-end throughput",
		Cols:  []string{"kernel ns/q", "e2e Kq/s"},
	}

	sigs, keys := ds.Slice(0.25)
	queries := ds.Queries(4096, 0.25, -1, p.Seed+5000)
	res.ExpectedKeys = bruteForceKeys(sigs, queries, p.Queries)
	eng, devs, err := BuildEngine(EngineSpec{
		Sigs: sigs, Keys: keys, Threads: p.Threads, GPUs: p.GPUs,
		MaxP: ds.BaseMaxP(),
	})
	if err != nil {
		panic(err)
	}
	run := &res.E2E
	res.ResultsMatch = parity
	for rep := 0; rep < reps; rep++ {
		r := MeasureEngine(eng, queries, p.Queries, false)
		run.RunsQPS = append(run.RunsQPS, r.QPS)
		run.Keys = r.Keys
		res.ResultsMatch = res.ResultsMatch && r.Keys == res.ExpectedKeys
	}
	st := eng.Stats()
	run.GateChecks, run.GatePruned = st.KernelGateChecks, st.KernelGatePruned
	run.GroupScans, run.ColumnsWalked = st.KernelGroupScans, st.KernelColumnsWalked
	eng.Close()
	closeDevices(devs)
	run.QPS = medianFloat(run.RunsQPS)
	t.Add("scalar kernel (oracle)", scMed)
	t.Add("sliced kernel", slMed, run.QPS/1e3)

	// Chaos re-check: the chaos experiment's fault plan (device 0 dies
	// mid-run, survivors drop 5% of ops). Exactness must survive the
	// retry and CPU-fallback ladder with the transposed kernel in the
	// loop.
	gpus := p.GPUs
	if gpus < 2 {
		gpus = 2
	}
	fEng, fDevs, err := BuildEngine(EngineSpec{
		Sigs: sigs, Keys: keys, Threads: p.Threads, GPUs: gpus,
		MaxP: ds.BaseMaxP(),
	})
	if err != nil {
		panic(err)
	}
	fDevs[0].SetFaultPlan(&gpu.FaultPlan{Seed: p.Seed, DieAtOp: 2000})
	for _, d := range fDevs[1:] {
		d.SetFaultPlan(&gpu.FaultPlan{
			Seed:           p.Seed,
			CopyFailProb:   0.05,
			LaunchFailProb: 0.05,
		})
	}
	f := MeasureEngine(fEng, queries, p.Queries, false)
	fSt := fEng.Stats()
	fEng.Close()
	closeDevices(fDevs)
	res.ChaosResultsMatch = f.Keys == res.ExpectedKeys

	t.Note("match kernel: %.0f ns/q scalar -> %.0f ns/q sliced (%.1fx) over %d partitions, %d batches; median of %d runs",
		scMed, slMed, res.Speedup, res.Partitions, res.Batches, reps)
	t.Note("group gate pruned %.1f%% of (group,query) tests; survivors walked %.1f of %d columns",
		res.GatePruneRate*100, res.ColumnsPerScan, bitvec.W)
	if res.ResultsMatch {
		t.Note("results exact: kernel parity vs brute force and engine keys equal the brute-force count (%d)", res.ExpectedKeys)
	} else {
		t.Note("RESULT MISMATCH: parity=%v engine_keys=%d brute_force_keys=%d",
			parity, run.Keys, res.ExpectedKeys)
	}
	if res.ChaosResultsMatch {
		t.Note("chaos re-check: exact under faults (%d keys, %d cpu_fallbacks, %d retries)",
			f.Keys, fSt.CPUFallbacks, fSt.BatchRetries)
	} else {
		t.Note("CHAOS MISMATCH: brute force=%d faulty=%d keys", res.ExpectedKeys, f.Keys)
	}
	return t, res
}

// bruteForceKeys is the reference key count of a stream of n queries
// cycling through queries over a database holding one key per
// signature: every (query, signature) subset pair yields one key.
func bruteForceKeys(sigs, queries []bitvec.Vector, n int) int64 {
	if len(queries) == 0 {
		return 0
	}
	perQuery := make([]int64, len(queries))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for qi := w; qi < len(queries); qi += workers {
				for _, s := range sigs {
					if s.SubsetOf(queries[qi]) {
						perQuery[qi]++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for i := 0; i < n; i++ {
		total += perQuery[i%len(queries)]
	}
	return total
}

// WriteJSON writes the result as indented JSON.
func (r *KernelResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
