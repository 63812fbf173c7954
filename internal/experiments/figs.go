package experiments

import (
	"fmt"
	"sync"
	"time"

	"tagmatch/internal/core"
	"tagmatch/internal/metrics"
	"tagmatch/internal/trie"
)

// Fig2And3 reproduces Figures 2 and 3: input throughput and output rate
// for match-unique as the number of extra tags per query grows from 1 to
// 10, for TagMatch and the prefix tree.
func Fig2And3(p Params) (*Table, *Table) {
	ds := BuildDataset(p)
	sigs, keys := ds.Slice(1.0)
	uniqueSigs, keysBySet := KeysBySet(sigs, keys)

	fig2 := &Table{ID: "fig2", Title: "match-unique input throughput vs extra query tags (K queries/s)"}
	fig3 := &Table{ID: "fig3", Title: "match-unique output rate vs extra query tags (K keys/s)"}
	extras := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, e := range extras {
		fig2.Cols = append(fig2.Cols, fmt.Sprintf("+%d", e))
		fig3.Cols = append(fig3.Cols, fmt.Sprintf("+%d", e))
	}

	tr := trie.New()
	for i, s := range uniqueSigs {
		for _, k := range keysBySet[i] {
			tr.Add(s, k)
		}
	}
	tr.Freeze()

	eng, devs, err := BuildEngine(EngineSpec{Sigs: sigs, Keys: keys, Threads: p.Threads, GPUs: p.GPUs, MaxP: ds.BaseMaxP()})
	if err != nil {
		panic(err)
	}
	defer eng.Close()
	defer closeDevices(devs)

	var tmIn, tmOut, ptIn, ptOut []float64
	for _, e := range extras {
		queries := ds.Queries(4096, 1.0, e, p.Seed+400+int64(e))
		// More extra tags → broader queries → fewer can be pushed in the
		// same budget; shrink n as e grows to bound runtime.
		n := p.Queries / (1 + e/3)
		r := MeasureEngine(eng, queries, n, true)
		tmIn = append(tmIn, r.QPS/1e3)
		tmOut = append(tmOut, r.KeysPS/1e3)
		rp := MeasureMatcher(matcherAdapter{tr}, queries, 2000, p.Threads, true)
		ptIn = append(ptIn, rp.QPS/1e3)
		ptOut = append(ptOut, rp.KeysPS/1e3)
	}
	fig2.Add("TagMatch", tmIn...)
	fig2.Add("Prefix tree", ptIn...)
	fig3.Add("TagMatch", tmOut...)
	fig3.Add("Prefix tree", ptOut...)
	fig2.Note("paper shape: both decline with query size (log scale), TagMatch ≈10x the tree throughout")
	fig3.Note("paper shape: output rate RISES with query size while input throughput falls")
	return fig2, fig3
}

// Fig4 reproduces Figure 4: throughput for match and match-unique as the
// database grows from 20% to 100%, for TagMatch and the prefix tree.
func Fig4(p Params) *Table {
	ds := BuildDataset(p)
	t := &Table{
		ID:    "fig4",
		Title: "throughput vs database size (K queries/s)",
		Cols:  []string{"20%", "40%", "60%", "80%", "100%"},
	}
	fracs := []float64{0.2, 0.4, 0.6, 0.8, 1.0}

	var tmM, tmU, ptM, ptU []float64
	for _, frac := range fracs {
		sigs, keys := ds.Slice(frac)
		queries := ds.Queries(4096, frac, -1, p.Seed+500)

		eng, devs, err := BuildEngine(EngineSpec{Sigs: sigs, Keys: keys, Threads: p.Threads, GPUs: p.GPUs, MaxP: ds.BaseMaxP()})
		if err != nil {
			panic(err)
		}
		tmM = append(tmM, MeasureEngine(eng, queries, p.Queries, false).QPS/1e3)
		tmU = append(tmU, MeasureEngine(eng, queries, p.Queries, true).QPS/1e3)
		eng.Close()
		closeDevices(devs)

		uniqueSigs, keysBySet := KeysBySet(sigs, keys)
		tr := trie.New()
		for i, s := range uniqueSigs {
			for _, k := range keysBySet[i] {
				tr.Add(s, k)
			}
		}
		tr.Freeze()
		ptM = append(ptM, MeasureMatcher(matcherAdapter{tr}, queries, 3000, p.Threads, false).QPS/1e3)
		ptU = append(ptU, MeasureMatcher(matcherAdapter{tr}, queries, 3000, p.Threads, true).QPS/1e3)
	}
	t.Add("TagMatch match", tmM...)
	t.Add("TagMatch match-unique", tmU...)
	t.Add("Prefix tree match", ptM...)
	t.Add("Prefix tree match-unique", ptU...)
	t.Note("paper shape: monotone decline with database size; TagMatch ≈10x tree at every size")
	return t
}

// Fig5 reproduces Figure 5: throughput as CPU threads grow, for match
// and match-unique, against the prefix tree with the same thread counts.
func Fig5(p Params) *Table {
	ds := BuildDataset(p)
	sigs, keys := ds.Slice(1.0)
	queries := ds.Queries(4096, 1.0, -1, p.Seed+600)
	threads := []int{1, 2, 4, 8, 12, 16}

	t := &Table{ID: "fig5", Title: "throughput vs CPU threads (K queries/s)"}
	for _, th := range threads {
		t.Cols = append(t.Cols, fmt.Sprintf("%dT", th))
	}

	uniqueSigs, keysBySet := KeysBySet(sigs, keys)
	tr := trie.New()
	for i, s := range uniqueSigs {
		for _, k := range keysBySet[i] {
			tr.Add(s, k)
		}
	}
	tr.Freeze()

	var tmM, tmU, ptM []float64
	for _, th := range threads {
		eng, devs, err := BuildEngine(EngineSpec{Sigs: sigs, Keys: keys, Threads: th, GPUs: p.GPUs, MaxP: ds.BaseMaxP()})
		if err != nil {
			panic(err)
		}
		tmM = append(tmM, MeasureEngine(eng, queries, p.Queries, false).QPS/1e3)
		tmU = append(tmU, MeasureEngine(eng, queries, p.Queries, true).QPS/1e3)
		eng.Close()
		closeDevices(devs)
		ptM = append(ptM, MeasureMatcher(matcherAdapter{tr}, queries, 3000, th, false).QPS/1e3)
	}
	t.Add("TagMatch match", tmM...)
	t.Add("TagMatch match-unique", tmU...)
	t.Add("Prefix tree match", ptM...)
	t.Note("paper shape: near-linear scaling until the GPU stages saturate, then flat/declining")
	t.Note("thread counts scaled to this host's %d cores (paper swept 4..48 on 24 cores)", p.Threads)
	return t
}

// Fig6 reproduces Figure 6: the end-to-end latency distribution of
// match-unique under different batch-flush timeouts, with queries
// arriving as a paced stream rather than an open-loop flood.
func Fig6(p Params) *Table {
	ds := BuildDataset(p)
	sigs, keys := ds.Slice(1.0)
	queries := ds.Queries(4096, 1.0, -1, p.Seed+700)

	// Probe sustainable throughput once, then pace arrivals at 50% of it
	// so queueing delay reflects batching, not saturation.
	probeEng, probeDevs, err := BuildEngine(EngineSpec{Sigs: sigs, Keys: keys, Threads: p.Threads, GPUs: p.GPUs, MaxP: ds.BaseMaxP()})
	if err != nil {
		panic(err)
	}
	capacity := MeasureEngine(probeEng, queries, p.Queries/2, true).QPS
	probeEng.Close()
	closeDevices(probeDevs)
	rate := capacity * 0.5

	t := &Table{
		ID:    "fig6",
		Title: "match-unique latency vs batch timeout (paced arrivals)",
		Cols:  []string{"median ms", "p99 ms", "max ms", "K queries/s"},
	}
	timeouts := []struct {
		label string
		d     time.Duration
	}{
		{"no timeout", 0},
		{"100ms", 100 * time.Millisecond},
		{"200ms", 200 * time.Millisecond},
		{"300ms", 300 * time.Millisecond},
		{"500ms", 500 * time.Millisecond},
	}
	n := p.Queries / 2
	for _, to := range timeouts {
		eng, devs, err := BuildEngine(EngineSpec{
			Sigs: sigs, Keys: keys, Threads: p.Threads, GPUs: p.GPUs, MaxP: ds.BaseMaxP(),
			Mutate: func(c *core.Config) { c.BatchTimeout = to.d },
		})
		if err != nil {
			panic(err)
		}
		lat := metrics.NewLatencies()
		var wg sync.WaitGroup
		wg.Add(n)
		start := time.Now()
		interval := time.Duration(float64(time.Second) / rate)
		next := start
		for i := 0; i < n; i++ {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			next = next.Add(interval)
			if err := eng.SubmitSignature(queries[i%len(queries)], true, func(r core.MatchResult) {
				lat.Observe(r.Latency)
				wg.Done()
			}); err != nil {
				panic(err)
			}
		}
		if to.d == 0 {
			eng.Drain() // without a timeout the tail would wait forever
		}
		wg.Wait()
		el := time.Since(start)
		s := lat.Summarize()
		t.Add(to.label,
			float64(s.Median)/1e6, float64(s.P99)/1e6, float64(s.Max)/1e6,
			float64(n)/el.Seconds()/1e3)
		eng.Close()
		closeDevices(devs)
	}
	t.Note("arrival rate paced at 50%% of measured capacity (%.0f queries/s)", rate)
	t.Note("paper shape: longer timeouts cut tail latency; a too-short timeout (100ms) costs ~20%% throughput")
	return t
}

// Fig7 reproduces Figure 7: throughput as MAX_P (the maximum partition
// size of Algorithm 1) sweeps around the paper's 200K sweet spot.
func Fig7(p Params) *Table {
	ds := BuildDataset(p)
	sigs, keys := ds.Slice(1.0)
	queries := ds.Queries(4096, 1.0, -1, p.Seed+800)

	base := len(sigs) / 1000 // the paper's 200K at 212M
	if base < 64 {
		base = 64
	}
	factors := []float64{0.125, 0.25, 0.5, 1, 2, 4, 8}
	t := &Table{ID: "fig7", Title: "throughput vs MAX_P (K queries/s)"}
	for _, f := range factors {
		t.Cols = append(t.Cols, fmt.Sprintf("%d", int(float64(base)*f)))
	}
	var m, u []float64
	for _, f := range factors {
		maxP := int(float64(base) * f)
		if maxP < 16 {
			maxP = 16
		}
		eng, devs, err := BuildEngine(EngineSpec{
			Sigs: sigs, Keys: keys, Threads: p.Threads, GPUs: p.GPUs, MaxP: maxP,
		})
		if err != nil {
			panic(err)
		}
		m = append(m, MeasureEngine(eng, queries, p.Queries, false).QPS/1e3)
		u = append(u, MeasureEngine(eng, queries, p.Queries, true).QPS/1e3)
		eng.Close()
		closeDevices(devs)
	}
	t.Add("match", m...)
	t.Add("match-unique", u...)
	t.Note("paper shape: throughput rises to a sweet spot (~200K at full scale, here ~%d) then flattens", base)
	return t
}

// Fig8 reproduces Figure 8: consolidate (partitioning) time as the
// database grows, with MAX_P fixed at the paper's ratio.
func Fig8(p Params) *Table {
	ds := BuildDataset(p)
	t := &Table{
		ID:    "fig8",
		Title: "partitioning (consolidate) time vs database size (seconds)",
		Cols:  []string{"25%", "50%", "75%", "100%"},
	}
	maxP := len(ds.Sigs) / 1000
	if maxP < 64 {
		maxP = 64
	}
	var secs []float64
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
		sigs, keys := ds.Slice(frac)
		eng, devs, err := BuildEngine(EngineSpec{
			Sigs: sigs, Keys: keys, Threads: p.Threads, GPUs: p.GPUs, MaxP: maxP,
		})
		if err != nil {
			panic(err)
		}
		// Min of two rebuilds: a single consolidate is long enough for a
		// GC or scheduler hiccup to distort the curve.
		best := eng.Stats().LastConsolidate.Seconds()
		if err := eng.Consolidate(); err != nil {
			panic(err)
		}
		if again := eng.Stats().LastConsolidate.Seconds(); again < best {
			best = again
		}
		secs = append(secs, best)
		eng.Close()
		closeDevices(devs)
	}
	t.Add("consolidate time (s)", secs...)
	t.Note("paper shape: linear in database size; ~50s for 200M sets at full scale")
	return t
}

// Fig9 reproduces Figure 9: host and GPU memory usage as the database
// grows.
func Fig9(p Params) *Table {
	ds := BuildDataset(p)
	t := &Table{
		ID:    "fig9",
		Title: "memory usage vs database size (MB)",
		Cols:  []string{"25%", "50%", "75%", "100%"},
	}
	var host, dev0 []float64
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
		sigs, keys := ds.Slice(frac)
		eng, devs, err := BuildEngine(EngineSpec{Sigs: sigs, Keys: keys, Threads: p.Threads, GPUs: p.GPUs, MaxP: ds.BaseMaxP()})
		if err != nil {
			panic(err)
		}
		st := eng.Stats()
		host = append(host, float64(st.HostBytes)/1e6)
		var dsum int64
		for _, b := range st.DeviceBytes {
			dsum += b
		}
		dev0 = append(dev0, float64(dsum)/1e6)
		eng.Close()
		closeDevices(devs)
	}
	t.Add("Host (key table + index)", host...)
	t.Add("GPUs (transposed tagset tables)", dev0...)
	t.Note("paper shape: both linear; host dominated by the key table, GPU by the tagset table")
	return t
}
