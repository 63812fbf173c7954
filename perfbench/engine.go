package main

import (
	"fmt"
	"log/slog"
	"runtime"
	"strings"
	"time"

	"tagmatch"
	"tagmatch/internal/workload"
)

// engineConfig is the engine under test: the configuration
// cmd/tagmatch-server builds (2 GPUs, 4 threads, 50ms flush timeout,
// live updates and observability on, no tracing) plus RealisticGPUCosts,
// so the simulated devices charge their launch and copy costs. Every
// other field keeps its default. traceEvery is set only by the traced
// run, for the engine's own sampled traces.
func engineConfig(traceEvery int) tagmatch.Config {
	return tagmatch.Config{
		GPUs:              2,
		Threads:           4,
		BatchTimeout:      50 * time.Millisecond,
		RealisticGPUCosts: true,
		TraceEvery:        traceEvery,
		Logger:            slog.Default(),
	}
}

// setup is a freshly loaded engine and what loading it took, as
// intervals since the run's origin.
type setup struct {
	eng         *tagmatch.Engine
	load        [2]int64 // AddSet of every interest
	consolidate [2]int64 // the Consolidate that follows
	heapMB      float64  // live Go heap the loaded engine added, 10⁶ bytes
}

func (s setup) loadS() float64        { return float64(s.load[1]-s.load[0]) / 1e9 }
func (s setup) consolidateS() float64 { return float64(s.consolidate[1]-s.consolidate[0]) / 1e9 }
func (s setup) seconds() float64      { return s.loadS() + s.consolidateS() }

// setUp creates an engine and loads db into it: AddSet for every
// interest, then Consolidate. The engine is handed its own copy of
// every tag, made before timing starts and dropped by the harness once
// loaded, so heapMB (live heap after the load minus live heap before
// the engine existed, both after a forced GC) counts what the engine
// keeps and nothing the harness holds.
func setUp(cfg tagmatch.Config, db []workload.Interest, origin time.Time) (setup, error) {
	base := liveHeap()
	tags := make([][]string, len(db))
	for i, in := range db {
		tags[i] = make([]string, len(in.Tags))
		for j, t := range in.Tags {
			tags[i][j] = strings.Clone(t)
		}
	}
	eng, err := tagmatch.New(cfg)
	if err != nil {
		return setup{}, fmt.Errorf("new engine: %w", err)
	}
	s := setup{eng: eng}
	s.load[0] = int64(time.Since(origin))
	for i, in := range db {
		eng.AddSet(tags[i], tagmatch.Key(in.User))
	}
	s.load[1] = int64(time.Since(origin))
	tags = nil
	s.consolidate[0] = s.load[1]
	if err := eng.Consolidate(); err != nil {
		eng.Close()
		return setup{}, fmt.Errorf("consolidate: %w", err)
	}
	s.consolidate[1] = int64(time.Since(origin))
	s.heapMB = float64(liveHeap()-base) / 1e6
	return s, nil
}

// liveHeap is the live Go heap in bytes, after a forced GC.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
