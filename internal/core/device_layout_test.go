package core

import (
	"errors"
	"testing"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/gpu"
)

// wantDeviceBytes is the device footprint the index layout promises,
// per device: the bit-sliced groups of every partition the device
// serves (all of them when replicated), the query-window ring, and the
// per-stream slot buffers. No row-major bitvec.Vector copy of the index
// is part of it.
func wantDeviceBytes(e *Engine) []int64 {
	idx := e.idx.Load()
	cfg := e.cfg
	slot := int64(cfg.BatchSize)*sigBytes + int64(cfg.BatchSize)*4 +
		resHeaderWords*4 + int64(pairBufBytes(cfg.MaxPairsPerBatch))
	out := make([]int64, len(idx.devices))
	for d := range idx.devices {
		for pi := range idx.parts {
			if cfg.Replicate || idx.parts[pi].dev == d {
				out[d] += int64(idx.parts[pi].nGroups()) * slicedGroupBytes
			}
		}
		if !cfg.DisableQueryWindow {
			out[d] += int64(cfg.QueryWindow) * sigBytes
		}
		for _, sc := range idx.allStreams {
			if sc.dev == d {
				out[d] += int64(len(sc.slots)) * slot
			}
		}
	}
	return out
}

func checkDeviceBytes(t *testing.T, e *Engine, stage string) []int64 {
	t.Helper()
	got, want := e.Stats().DeviceBytes, wantDeviceBytes(e)
	if len(got) != len(want) {
		t.Fatalf("%s: %d devices report memory, want %d", stage, len(got), len(want))
	}
	for d := range want {
		if got[d] != want[d] {
			t.Fatalf("%s: device %d holds %d bytes, want %d (groups + window + slots)",
				stage, d, got[d], want[d])
		}
	}
	return got
}

// freshDB is db plus n new single-key signatures (6 tags, so they are
// disjoint from makeTestDB's 5-tag sets), for staging after a build.
func freshDB(db *testDB, n int, seed int64) (*testDB, *testDB) {
	fresh := &testDB{sigs: randomSets(n, 6, seed)}
	for i := range fresh.sigs {
		fresh.keys = append(fresh.keys, []Key{Key(1_000_000 + i)})
	}
	all := &testDB{
		sigs: append(append([]bitvec.Vector(nil), db.sigs...), fresh.sigs...),
		keys: append(append([][]Key(nil), db.keys...), fresh.keys...),
	}
	return fresh, all
}

// TestDeviceLayoutGroupsOnly pins the device footprint on a 2-GPU
// engine in both placement modes: after a full build every device holds
// exactly its bit-sliced groups, its query window and its stream slots
// — no row-major copy of the index — and an incremental fold's new
// extents add exactly the appended partitions' groups.
func TestDeviceLayoutGroupsOnly(t *testing.T) {
	for _, replicate := range []bool{false, true} {
		name := "partitioned"
		if replicate {
			name = "replicated"
		}
		t.Run(name, func(t *testing.T) {
			e, err := New(Config{
				MaxPartitionSize: 50, BatchSize: 16, Threads: 2,
				Devices:          []*gpu.Device{newTestGPU(t, 2), newTestGPU(t, 2)},
				StreamsPerDevice: 2, Replicate: replicate,
				DeltaMaxSets: 24, DeltaMaxRatio: 1e-9,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			db := makeTestDB(600, 5, 2, 171)
			db.load(e)
			if err := e.Consolidate(); err != nil {
				t.Fatal(err)
			}
			before := checkDeviceBytes(t, e, "full build")
			baseParts := len(e.idx.Load().parts)
			st0 := e.Stats()

			fresh, all := freshDB(db, 40, 172)
			fresh.load(e)
			waitConsolidatorSettled(t, e)
			st := e.Stats()
			inc, folds := st.IncrementalFolds-st0.IncrementalFolds, st.AutoConsolidations-st0.AutoConsolidations
			if inc == 0 || inc != folds {
				t.Fatalf("folds: %d incremental of %d, want every fold incremental", inc, folds)
			}
			after := checkDeviceBytes(t, e, "incremental fold")
			idx := e.idx.Load()
			extents := 0
			for d := range after {
				var grown int64
				for pi := baseParts; pi < len(idx.parts); pi++ {
					if p := &idx.parts[pi]; replicate || p.dev == d {
						grown += int64(p.nGroups()) * slicedGroupBytes
					}
				}
				if after[d]-before[d] != grown {
					t.Fatalf("device %d grew %d bytes, want %d (the appended groups only)",
						d, after[d]-before[d], grown)
				}
				extents += len(idx.devGrpExts[d])
			}
			if extents == 0 {
				t.Fatal("fold appended no device extent")
			}
			verifyEngine(t, e, all, all.makeQueries(150, 173), false)
		})
	}
}

// TestDeviceLayoutDegradedGenerationReattaches checks that a fold on
// top of a CPU-degraded generation (no device groups to adopt) takes
// the full re-attach path: every partition back in the base shards, no
// extent, and the full groups-only footprint.
func TestDeviceLayoutDegradedGenerationReattaches(t *testing.T) {
	devs := []*gpu.Device{newTestGPU(t, 2), newTestGPU(t, 2)}
	e, err := New(Config{
		MaxPartitionSize: 50, BatchSize: 16, Threads: 2,
		Devices: devs, StreamsPerDevice: 2,
		DeltaMaxSets: 24, DeltaMaxRatio: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	db := makeTestDB(600, 5, 2, 174)
	db.load(e)
	for _, d := range devs {
		d.SetFaultPlan(&gpu.FaultPlan{Seed: 1, AllocFailProb: 1})
	}
	if err := e.Consolidate(); !errors.Is(err, ErrDeviceDegraded) {
		t.Fatalf("Consolidate with failing allocations: %v, want ErrDeviceDegraded", err)
	}
	if n := len(e.Stats().DeviceBytes); n != 0 {
		t.Fatalf("degraded generation reports %d devices", n)
	}
	for _, d := range devs {
		d.SetFaultPlan(nil)
	}

	inc0 := e.Stats().IncrementalFolds
	fresh, all := freshDB(db, 40, 175)
	fresh.load(e)
	waitConsolidatorSettled(t, e)
	if e.Stats().IncrementalFolds == inc0 {
		t.Fatal("fold was not built incrementally")
	}
	idx := e.idx.Load()
	if idx.devGrpExts != nil {
		t.Fatal("fold adopted device extents from a generation that had none")
	}
	for pi := range idx.parts {
		if idx.parts[pi].ext != 0 {
			t.Fatalf("partition %d in extent %d after a full re-attach", pi, idx.parts[pi].ext)
		}
	}
	checkDeviceBytes(t, e, "re-attach")
	verifyEngine(t, e, all, all.makeQueries(150, 176), false)
}
