package core

import (
	"testing"
	"unsafe"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/bloom"
	"tagmatch/internal/gpu"
	"tagmatch/internal/obs"
)

func TestSlicedGroupBytesMatchesLayout(t *testing.T) {
	// hostBytes and the device-memory accounting both assume this
	// constant; keep it locked to the real struct layout.
	if got := int64(unsafe.Sizeof(bitvec.SlicedGroup{})); got != slicedGroupBytes {
		t.Fatalf("unsafe.Sizeof(SlicedGroup) = %d, slicedGroupBytes = %d", got, slicedGroupBytes)
	}
}

func TestSlicedGrid(t *testing.T) {
	for _, tc := range []struct {
		nGroups, blockDim, blocks, dim int
	}{
		{1, 256, 1, 4},
		{5, 256, 2, 4},
		{5, 64, 5, 1},
		{5, 1, 5, 1},   // blockDim < 64 degrades to one group per block
		{7, 129, 4, 2}, // gpb truncates: 129/64 = 2
		{0, 256, 0, 4},
	} {
		g := slicedGrid(tc.nGroups, tc.blockDim)
		if g.Blocks != tc.blocks || g.BlockDim != tc.dim {
			t.Fatalf("slicedGrid(%d, %d) = %+v, want {%d %d}",
				tc.nGroups, tc.blockDim, g, tc.blocks, tc.dim)
		}
		// Every group must be covered exactly once.
		if g.Blocks*g.BlockDim < tc.nGroups {
			t.Fatalf("slicedGrid(%d, %d) covers only %d groups",
				tc.nGroups, tc.blockDim, g.Blocks*g.BlockDim)
		}
	}
}

// runSlicedGPUKernel is the sliced counterpart of runGPUKernel: it
// transposes the sets into lane groups, uploads them, and runs
// slicedMatchKernelAt over one batch.
func runSlicedGPUKernel(t *testing.T, sets, queries []bitvec.Vector, maxPairs, blockDim int, gate bool, kc *obs.KernelCounters) ([]pair, bool) {
	t.Helper()
	dev := gpu.New(gpu.Config{Workers: 4})
	defer dev.Close()
	s, err := dev.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	groups := bitvec.BuildSlicedGroups(sets)
	groupsBuf := gpu.MustAlloc[bitvec.SlicedGroup](dev, max(1, len(groups)))
	qbuf := gpu.MustAlloc[bitvec.Vector](dev, max(1, len(queries)))
	hdr := gpu.MustAlloc[uint32](dev, resHeaderWords)
	pairsBuf := gpu.MustAlloc[byte](dev, pairBufBytes(maxPairs))
	defer groupsBuf.Free()
	defer qbuf.Free()
	defer hdr.Free()
	defer pairsBuf.Free()

	if len(groups) > 0 {
		if err := groupsBuf.CopyToDevice(0, groups); err != nil {
			t.Fatal(err)
		}
	}
	gpu.CopyToDeviceAsync(s, hdr, 0, []uint32{0, 0})
	if len(queries) > 0 {
		gpu.CopyToDeviceAsync(s, qbuf, 0, queries)
	}
	s.LaunchAsync(slicedGrid(len(groups), blockDim),
		slicedMatchKernelAt(groupsBuf, 0, len(groups), 0, querySrc{direct: qbuf, n: len(queries)}, hdr, pairsBuf, maxPairs, gate, nil, kc))
	hdrHost := make([]uint32, resHeaderWords)
	gpu.CopyFromDeviceAsync(s, hdr, hdrHost, 0)
	s.Synchronize()

	count, overflow := clampCount(hdrHost[0], hdrHost[1], maxPairs)
	if overflow {
		return nil, true
	}
	packed := make([]byte, pairBufBytes(count))
	if count > 0 {
		if err := pairsBuf.CopyFromDevice(packed, 0); err != nil {
			t.Fatal(err)
		}
	}
	var got []pair
	decodePacked(packed, count, func(q uint8, sid uint32) { got = append(got, pair{q, sid}) })
	sortPairs(got)
	return got, false
}

func TestSlicedKernelMatchesBruteForce(t *testing.T) {
	sets, queries := batchFixture(3000, 64, 21)
	want := bruteForcePairs(sets, 0, queries)
	if len(want) == 0 {
		t.Fatal("fixture produced no matches; test is vacuous")
	}
	for _, gate := range []bool{true, false} {
		var kc obs.KernelCounters
		got, overflow := runSlicedGPUKernel(t, sets, queries, 100000, 256, gate, &kc)
		if overflow {
			t.Fatal("unexpected overflow")
		}
		if len(got) != len(want) {
			t.Fatalf("gate=%v: %d pairs, want %d", gate, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("gate=%v: pair %d = %+v, want %+v", gate, i, got[i], want[i])
			}
		}
		if kc.GroupScans.Load() == 0 || kc.ColumnsWalked.Load() == 0 {
			t.Fatalf("gate=%v: telemetry not recorded: %+v", gate, kc.Snapshot())
		}
		if gate && kc.GateChecks.Load() == 0 {
			t.Fatal("gate enabled but no gate checks recorded")
		}
		if !gate && kc.GateChecks.Load() != 0 {
			t.Fatal("gate disabled but gate checks recorded")
		}
	}
}

func TestSlicedKernelOddBlockDims(t *testing.T) {
	// Sets deliberately not a multiple of 64, so the last group has
	// invalid lanes; those must never emit.
	sets, queries := batchFixture(777, 31, 22)
	want := bruteForcePairs(sets, 0, queries)
	for _, bd := range []int{1, 7, 64, 129, 256, 1024} {
		got, overflow := runSlicedGPUKernel(t, sets, queries, 100000, bd, true, nil)
		if overflow {
			t.Fatalf("blockDim=%d overflow", bd)
		}
		if len(got) != len(want) {
			t.Fatalf("blockDim=%d: %d pairs, want %d", bd, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("blockDim=%d: pair %d mismatch", bd, i)
			}
		}
	}
}

func TestSlicedKernelOverflow(t *testing.T) {
	sets, queries := batchFixture(2000, 64, 23)
	if len(bruteForcePairs(sets, 0, queries)) < 5 {
		t.Skip("fixture too selective")
	}
	_, overflow := runSlicedGPUKernel(t, sets, queries, 2, 256, true, nil)
	if !overflow {
		t.Fatal("expected overflow with maxPairs=2")
	}
}

func TestSlicedKernelEmptyBatch(t *testing.T) {
	sets, _ := batchFixture(500, 1, 26)
	got, overflow := runSlicedGPUKernel(t, sets, nil, 16, 256, true, nil)
	if overflow || len(got) != 0 {
		t.Fatalf("empty batch emitted %d pairs (overflow=%v)", len(got), overflow)
	}
	// And an empty partition against a non-empty batch.
	got, overflow = runSlicedGPUKernel(t, nil, []bitvec.Vector{bitvec.FromOnes(1)}, 16, 256, true, nil)
	if overflow || len(got) != 0 {
		t.Fatalf("empty partition emitted %d pairs (overflow=%v)", len(got), overflow)
	}
}

func TestSlicedSplitKernelMatchesPacked(t *testing.T) {
	sets, queries := batchFixture(1500, 32, 25)
	want := bruteForcePairs(sets, 0, queries)

	dev := gpu.New(gpu.Config{Workers: 4})
	defer dev.Close()
	s, _ := dev.OpenStream()
	defer s.Close()

	const maxPairs = 100000
	groups := bitvec.BuildSlicedGroups(sets)
	groupsBuf := gpu.MustAlloc[bitvec.SlicedGroup](dev, len(groups))
	qbuf := gpu.MustAlloc[bitvec.Vector](dev, len(queries))
	outQ := gpu.MustAlloc[uint32](dev, splitHeaderWords+maxPairs)
	outS := gpu.MustAlloc[uint32](dev, maxPairs)
	defer func() { groupsBuf.Free(); qbuf.Free(); outQ.Free(); outS.Free() }()

	if err := groupsBuf.CopyToDevice(0, groups); err != nil {
		t.Fatal(err)
	}
	gpu.CopyToDeviceAsync(s, outQ, 0, []uint32{0, 0})
	gpu.CopyToDeviceAsync(s, qbuf, 0, queries)
	s.LaunchAsync(slicedGrid(len(groups), 256),
		slicedSplitMatchKernelAt(groupsBuf, 0, len(groups), 0, querySrc{direct: qbuf, n: len(queries)}, outQ, outS, maxPairs, true, nil, nil))
	hdrHost := make([]uint32, splitHeaderWords)
	gpu.CopyFromDeviceAsync(s, outQ, hdrHost, 0)
	s.Synchronize()

	count, overflow := clampCount(hdrHost[0], hdrHost[1], maxPairs)
	if overflow {
		t.Fatal("unexpected overflow")
	}
	qs := make([]uint32, count)
	ss := make([]uint32, count)
	if err := outQ.CopyFromDevice(qs, splitHeaderWords); err != nil {
		t.Fatal(err)
	}
	if err := outS.CopyFromDevice(ss, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]pair, count)
	for i := range got {
		got[i] = pair{uint8(qs[i]), ss[i]}
	}
	sortPairs(got)
	if len(got) != len(want) {
		t.Fatalf("%d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestCPUMatchBatchSlicedMatchesScalar(t *testing.T) {
	sets, queries := batchFixture(2500, 48, 24)
	want := bruteForcePairs(sets, 1000, queries)
	groups := bitvec.BuildSlicedGroups(sets)
	for _, gate := range []bool{true, false} {
		var got []pair
		cpuMatchBatchSliced(groups, 1000, queries, gate, nil, nil, func(q uint8, s uint32) {
			got = append(got, pair{q, s})
		})
		sortPairs(got)
		if len(got) != len(want) {
			t.Fatalf("gate=%v: %d pairs, want %d", gate, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("gate=%v: pair %d mismatch", gate, i)
			}
		}
	}
}

// TestEngineSlicedMatchesBruteForce runs a clustered shared-vocabulary
// workload through a GPU engine — whose only kernel is the bit-sliced
// one — and requires every answer to equal the brute-force signature
// reference, with the kernel telemetry attributed to the sliced flavor.
func TestEngineSlicedMatchesBruteForce(t *testing.T) {
	sets, queries := sharedVocabWorkload(8000, 80, 71)
	db := &testDB{}
	for i, s := range sets {
		db.sigs = append(db.sigs, bloom.Signature(s))
		db.keys = append(db.keys, []Key{Key(i + 1)})
	}
	qsigs := make([]bitvec.Vector, len(queries))
	for i, q := range queries {
		qsigs[i] = bloom.Signature(q)
	}

	e, err := New(Config{
		MaxPartitionSize: 400, BatchSize: 32, Threads: 2,
		Devices: []*gpu.Device{newTestGPU(t, 4)}, StreamsPerDevice: 2, Replicate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	db.load(e)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	verifyEngine(t, e, db, qsigs, false)
	verifyEngine(t, e, db, qsigs, true)

	st := e.Stats()
	if st.KernelSliced == 0 || st.KernelGateChecks == 0 || st.KernelColumnsWalked == 0 {
		t.Fatalf("sliced kernel recorded no telemetry: %+v", st)
	}
}

// TestEngineMasklessPartitionSliced covers the degenerate all-zero
// signature: it lands in a maskless partition whose group gate is the
// zero vector (passes every query), and must match everything.
func TestEngineMasklessPartitionSliced(t *testing.T) {
	e, err := New(Config{MaxPartitionSize: 64, BatchSize: 8, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.AddSignature(bitvec.Vector{}, 99) // empty signature → empty partition mask
	sigs := randomSets(200, 4, 31)
	for i, s := range sigs {
		e.AddSignature(s, Key(i+1))
	}
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	for qi, q := range randomSets(30, 9, 32) {
		got, err := e.MatchSignature(q, false)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, k := range got {
			if k == 99 {
				found = true
			}
		}
		if !found {
			t.Fatalf("query %d: empty set missing from %d keys", qi, len(got))
		}
		// Cross-check the full answer against brute force.
		want := map[Key]bool{99: true}
		for i, s := range sigs {
			if s.SubsetOf(q) {
				want[Key(i+1)] = true
			}
		}
		gotSet := map[Key]bool{}
		for _, k := range got {
			gotSet[k] = true
		}
		if len(gotSet) != len(want) {
			t.Fatalf("query %d: %d keys, want %d", qi, len(gotSet), len(want))
		}
		for k := range want {
			if !gotSet[k] {
				t.Fatalf("query %d: key %d missing", qi, k)
			}
		}
	}
}

func TestKernelBenchmarkSmoke(t *testing.T) {
	sigs := randomSets(4000, 5, 41)
	queries := make([]bitvec.Vector, 200)
	for i := range queries {
		queries[i] = sigs[(i*13)%len(sigs)].Or(randomSets(1, 4, int64(i)+500)[0])
	}
	res := KernelBenchmark(sigs, 500, queries, 64, 256, 1, 4)
	if !res.Parity {
		t.Fatal("sliced and scalar kernels disagree with brute force")
	}
	if res.Partitions == 0 || res.Batches == 0 {
		t.Fatalf("benchmark ran no work: %+v", res)
	}
	if res.ScalarNs <= 0 || res.SlicedNs <= 0 {
		t.Fatalf("non-positive timings: %+v", res)
	}
	if res.GateChecks == 0 || res.GroupScans == 0 || res.ColumnsWalked == 0 {
		t.Fatalf("telemetry not recorded: %+v", res)
	}
	// The header reset is fused into the launch: exactly the one query
	// upload per batch, never a separate reset copy.
	if res.H2DCopiesPerBatch != 1 {
		t.Fatalf("H2D copies per batch = %v, want exactly 1 (fused header reset)", res.H2DCopiesPerBatch)
	}
}

func TestKernelBenchmarkEmptyInputs(t *testing.T) {
	res := KernelBenchmark(nil, 500, randomSets(5, 3, 42), 64, 256, 1, 2)
	if !res.Parity {
		t.Fatal("empty database must report parity")
	}
	res = KernelBenchmark(randomSets(100, 3, 43), 500, nil, 64, 256, 1, 2)
	if !res.Parity {
		t.Fatal("empty query set must report parity")
	}
}

// FuzzSlicedMatch differentially fuzzes the bit-sliced host matcher
// against the scalar one: identical pair multisets for any database and
// batch, with and without the group gate.
func FuzzSlicedMatch(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 9, 9, 9, 200, 201}, []byte{1, 2, 3, 9}, true)
	f.Add([]byte{}, []byte{7}, false)
	f.Add([]byte{0, 0, 0, 0}, []byte{}, true)
	f.Fuzz(func(t *testing.T, setBytes, qBytes []byte, gate bool) {
		var sets []bitvec.Vector
		for i := 0; i < len(setBytes) && len(sets) < 400; i += 3 {
			var v bitvec.Vector
			for _, x := range setBytes[i:min(i+3, len(setBytes))] {
				v.Set(int(x) % bitvec.W)
			}
			sets = append(sets, v)
		}
		var queries []bitvec.Vector
		for i := 0; i < len(qBytes) && len(queries) < maxBatchSize; i += 6 {
			var v bitvec.Vector
			for _, x := range qBytes[i:min(i+6, len(qBytes))] {
				v.Set(int(x) % bitvec.W)
			}
			queries = append(queries, v)
		}

		var scalar []pair
		cpuMatchBatch(sets, 7, queries, 256, gate, nil, nil, func(q uint8, s uint32) {
			scalar = append(scalar, pair{q, s})
		})
		var sliced []pair
		cpuMatchBatchSliced(bitvec.BuildSlicedGroups(sets), 7, queries, gate, nil, nil, func(q uint8, s uint32) {
			sliced = append(sliced, pair{q, s})
		})
		sortPairs(scalar)
		sortPairs(sliced)
		if len(scalar) != len(sliced) {
			t.Fatalf("gate=%v: scalar %d pairs, sliced %d", gate, len(scalar), len(sliced))
		}
		for i := range scalar {
			if scalar[i] != sliced[i] {
				t.Fatalf("gate=%v: pair %d: scalar %+v, sliced %+v", gate, i, scalar[i], sliced[i])
			}
		}
	})
}
