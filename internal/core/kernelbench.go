package core

import (
	"slices"
	"time"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/gpu"
	"tagmatch/internal/obs"
)

// KernelBenchResult is the outcome of KernelBenchmark: the isolated
// subset-match kernel cost per submitted query for each flavor, exact
// result parity between them, and the sliced kernel's work telemetry.
type KernelBenchResult struct {
	ScalarNs   float64 // scalar kernel ns per submitted query
	SlicedNs   float64 // sliced kernel ns per submitted query
	Parity     bool    // both flavors emitted exactly the reference pair multiset
	Partitions int
	Batches    int // (partition, batch) kernel launches per iteration

	// Sliced-kernel telemetry accumulated over the parity pass: gate
	// tests vs groups discarded, and column words walked vs scans run.
	GateChecks    int64
	GatePruned    int64
	GroupScans    int64
	ColumnsWalked int64

	// H2DCopiesPerBatch is the mean H2D copy operations issued per
	// kernel launch over the timed passes. With the result-header reset
	// fused into the launch (LaunchZeroedAsync), exactly one copy — the
	// query batch — remains; the kernel bench test asserts this stays 1
	// so the separate header-reset transfer cannot silently come back.
	H2DCopiesPerBatch float64
}

// KernelBenchmark measures the subset-match kernel in isolation: it
// partitions sigs (Algorithm 1 + lexicographic sort, exactly as
// Consolidate does), routes every query through the partition table to
// form per-partition batches of at most batchSize, and times iters
// passes of the whole batch set through the scalar per-thread kernel
// and through the bit-sliced kernel on one simulated zero-cost device —
// so the comparison isolates the matching work itself from bus and
// driver overheads, which are identical for the two flavors. Before
// timing, an untimed pass checks both flavors against the brute-force
// reference pair multiset (Parity).
func KernelBenchmark(sigs []bitvec.Vector, maxP int, queries []bitvec.Vector, batchSize, blockDim, iters, workers int) KernelBenchResult {
	if batchSize <= 0 || batchSize > maxBatchSize {
		batchSize = maxBatchSize
	}
	if blockDim <= 0 {
		blockDim = 256
	}
	if iters < 1 {
		iters = 1
	}

	// Build the index the way Consolidate does: balanced partitions,
	// members sorted lexicographically, flat row table plus the
	// column-transposed mirror, and the routing table.
	specs := balancedPartition(sigs, maxP)
	var sets []bitvec.Vector
	var groups []bitvec.SlicedGroup
	parts := make([]partition, len(specs))
	for pi, spec := range specs {
		sortMembersLexicographically(sigs, spec.members)
		off := uint32(len(sets))
		for _, m := range spec.members {
			sets = append(sets, sigs[m])
		}
		parts[pi] = partition{
			mask:   spec.mask,
			off:    off,
			n:      uint32(len(spec.members)),
			grpOff: uint32(len(groups)),
		}
		groups = append(groups, bitvec.BuildSlicedGroups(sets[off:])...)
	}
	pt, maskless := buildPartitionTable(parts)

	// Route queries and pack them into per-partition batches, the work
	// units the pipeline would dispatch.
	type workItem struct {
		pid uint32
		qs  []bitvec.Vector
	}
	perPart := make([][]bitvec.Vector, len(parts))
	var pids []uint32
	for _, q := range queries {
		pids = pt.lookupSliced(q, q.Ones(nil), pids[:0])
		pids = append(pids, maskless...)
		for _, pid := range pids {
			perPart[pid] = append(perPart[pid], q)
		}
	}
	var items []workItem
	for pid, qs := range perPart {
		for len(qs) > 0 {
			n := min(len(qs), batchSize)
			items = append(items, workItem{pid: uint32(pid), qs: qs[:n]})
			qs = qs[n:]
		}
	}

	res := KernelBenchResult{Partitions: len(parts), Batches: len(items)}
	if len(items) == 0 || len(sets) == 0 {
		res.Parity = true
		return res
	}

	// Reference pair multisets and the result-buffer bound: the exact
	// pair count per batch, so the timed runs can never overflow.
	type pair struct {
		q uint8
		s uint32
	}
	cmpPair := func(a, b pair) int {
		if a.q != b.q {
			return int(a.q) - int(b.q)
		}
		if a.s != b.s {
			if a.s < b.s {
				return -1
			}
			return 1
		}
		return 0
	}
	ref := make([][]pair, len(items))
	maxPairs := 1
	for i, it := range items {
		p := &parts[it.pid]
		for si, set := range sets[p.off : p.off+p.n] {
			for qi := range it.qs {
				if set.SubsetOf(it.qs[qi]) {
					ref[i] = append(ref[i], pair{uint8(qi), p.off + uint32(si)})
				}
			}
		}
		slices.SortFunc(ref[i], cmpPair)
		if len(ref[i]) > maxPairs {
			maxPairs = len(ref[i])
		}
	}

	dev := gpu.New(gpu.Config{Workers: workers}) // zero cost model: kernel work only
	defer dev.Close()
	stream, err := dev.OpenStream()
	if err != nil {
		panic(err)
	}
	defer stream.Close()
	setsBuf := gpu.MustAlloc[bitvec.Vector](dev, len(sets))
	groupsBuf := gpu.MustAlloc[bitvec.SlicedGroup](dev, len(groups))
	qbuf := gpu.MustAlloc[bitvec.Vector](dev, batchSize)
	hdr := gpu.MustAlloc[uint32](dev, resHeaderWords)
	pairs := gpu.MustAlloc[byte](dev, pairBufBytes(maxPairs))
	if err := setsBuf.CopyToDevice(0, sets); err != nil {
		panic(err)
	}
	if err := groupsBuf.CopyToDevice(0, groups); err != nil {
		panic(err)
	}

	var kc obs.KernelCounters
	launch := func(it workItem, sliced bool) {
		p := &parts[it.pid]
		qsrc := querySrc{direct: qbuf, n: len(it.qs)}
		gpu.CopyToDeviceAsync(stream, qbuf, 0, it.qs)
		// Header reset fused into the launch: no separate tiny H2D copy.
		if sliced {
			nG := p.nGroups()
			stream.LaunchZeroedAsync(slicedGrid(nG, blockDim), hdr, resHeaderWords,
				slicedMatchKernelAt(groupsBuf, int(p.grpOff), nG, int(p.off),
					qsrc, hdr, pairs, maxPairs, true, nil, &kc))
		} else {
			grid := gpu.Grid{
				Blocks:   (int(p.n) + blockDim - 1) / blockDim,
				BlockDim: blockDim,
			}
			stream.LaunchZeroedAsync(grid, hdr, resHeaderWords,
				matchKernelAt(setsBuf, int(p.off), int(p.n), int(p.off),
					qsrc, hdr, pairs, maxPairs, true, nil))
		}
	}

	// Untimed parity pass: both flavors must emit exactly the reference
	// pair multiset for every batch.
	res.Parity = true
	hdrHost := make([]uint32, resHeaderWords)
	packed := make([]byte, pairBufBytes(maxPairs))
	for i, it := range items {
		for _, sliced := range []bool{false, true} {
			launch(it, sliced)
			if err := stream.SynchronizeErr(); err != nil {
				panic(err)
			}
			if err := hdr.CopyFromDevice(hdrHost, 0); err != nil {
				panic(err)
			}
			if err := pairs.CopyFromDevice(packed, 0); err != nil {
				panic(err)
			}
			count, overflow := clampCount(hdrHost[0], hdrHost[1], maxPairs)
			got := make([]pair, 0, count)
			decodePacked(packed, count, func(q uint8, s uint32) {
				got = append(got, pair{q, s})
			})
			slices.SortFunc(got, cmpPair)
			if overflow || !slices.Equal(got, ref[i]) {
				res.Parity = false
			}
		}
	}
	res.GateChecks = kc.GateChecks.Load()
	res.GatePruned = kc.GatePruned.Load()
	res.GroupScans = kc.GroupScans.Load()
	res.ColumnsWalked = kc.ColumnsWalked.Load()

	// Timed passes: enqueue a full iteration's batches back to back and
	// synchronize once, so host-side bookkeeping stays off the clock.
	// The H2D op count is measured across the passes: fused header
	// resets mean exactly one copy (the query batch) per launch.
	n := float64(iters * len(queries))
	copies0 := dev.Stats().CopiesHtoD
	launches := 0
	for _, flavor := range []struct {
		sliced bool
		out    *float64
	}{{false, &res.ScalarNs}, {true, &res.SlicedNs}} {
		t0 := time.Now()
		for it := 0; it < iters; it++ {
			for _, item := range items {
				launch(item, flavor.sliced)
				launches++
			}
			if err := stream.SynchronizeErr(); err != nil {
				panic(err)
			}
		}
		*flavor.out = float64(time.Since(t0)) / n
	}
	if launches > 0 {
		res.H2DCopiesPerBatch = float64(dev.Stats().CopiesHtoD-copies0) / float64(launches)
	}
	return res
}
