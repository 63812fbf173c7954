package core

import (
	"sync/atomic"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/gpu"
	"tagmatch/internal/obs"
)

// Scalar reference matchers. The engine ships only the bit-sliced
// kernel (kernel_sliced.go); these one-set-per-thread forms of
// Algorithms 3 and 4 remain as differential oracles for the tests,
// beside matchKernelAt, which KernelBenchmark also times.

// splitMatchKernelAt is matchKernelAt with the split output layout: query
// ids and set ids in two separate arrays (the layout §3.3.1 rejects),
// forcing the host to issue two result copies.
func splitMatchKernelAt(
	tagsets *gpu.Buffer[bitvec.Vector],
	partOff, partLen, globalBase int,
	qsrc querySrc,
	outQ *gpu.Buffer[uint32],
	outS *gpu.Buffer[uint32],
	maxPairs int,
	prefilter bool,
	pf *obs.PartitionCounters,
) gpu.KernelFunc {
	return func(b *gpu.BlockCtx) {
		sets := tagsets.Data()[partOff : partOff+partLen]
		qs := qsrc.gather()
		qout, sout := outQ.Data(), outS.Data()

		first := b.FirstGlobalID()
		if first >= len(sets) {
			return
		}
		blockSets := sets[first:min(first+b.Grid.BlockDim, len(sets))]

		var shared []uint8
		if prefilter {
			if pf != nil {
				pf.PrefilterBlocks.Add(1)
			}
			if shared = blockPrefilter(b, blockSets, qs); shared == nil {
				if pf != nil {
					pf.PrefilterPruned.Add(1)
				}
				return
			}
		}

		b.Threads(func(tid int) {
			if tid >= len(blockSets) {
				return
			}
			set := blockSets[tid]
			setID := uint32(globalBase + first + tid)
			emit := func(q uint8) {
				idx := int(b.AtomicAddU32(&qout[0], 1))
				if idx >= maxPairs {
					atomic.StoreUint32(&qout[1], 1)
					return
				}
				qout[splitHeaderWords+idx] = uint32(q)
				sout[idx] = setID
			}
			if prefilter {
				for _, qi := range shared {
					if set.SubsetOf(qs[qi]) {
						emit(qi)
					}
				}
			} else {
				for i := range qs {
					if set.SubsetOf(qs[i]) {
						emit(uint8(i))
					}
				}
			}
		})
	}
}

// cpuMatchBatch runs the scalar subset match for a whole batch on the
// host, the reference for cpuMatchBatchSliced. It applies the same
// block-prefix shortcut over runs of blockDim lexicographically sorted
// sets, and reports prefilter effectiveness through pf (may be nil) with
// one atomic update per batch. qScratch is an optional reusable buffer for
// the per-block surviving-query list (pass nil to allocate); the
// possibly-grown buffer is returned for the caller to keep.
func cpuMatchBatch(
	sets []bitvec.Vector, // the partition's slice of the tagset table
	globalBase int, // global set id of sets[0]
	queries []bitvec.Vector,
	blockDim int,
	prefilter bool,
	pf *obs.PartitionCounters,
	qScratch []uint8,
	visit func(q uint8, s uint32),
) []uint8 {
	if blockDim <= 0 {
		blockDim = 256
	}
	var pfBlocks, pfPruned int64
	if prefilter && pf != nil {
		defer func() {
			pf.PrefilterBlocks.Add(pfBlocks)
			pf.PrefilterPruned.Add(pfPruned)
		}()
	}
	qIdx := qScratch[:0]
	if cap(qIdx) < len(queries) {
		qIdx = make([]uint8, 0, max(len(queries), maxBatchSize))
	}
	for blk := 0; blk < len(sets); blk += blockDim {
		end := min(blk+blockDim, len(sets))
		block := sets[blk:end]
		qIdx = qIdx[:0]
		if prefilter {
			pfBlocks++
			prefixLen := bitvec.CommonPrefixLen(block[0], block[len(block)-1])
			for i := range queries {
				if block[0].PrefixSubsetOf(prefixLen, queries[i]) {
					qIdx = append(qIdx, uint8(i))
				}
			}
			if len(qIdx) == 0 {
				pfPruned++
				continue
			}
		} else {
			for i := range queries {
				qIdx = append(qIdx, uint8(i))
			}
		}
		for t := range block {
			setID := uint32(globalBase + blk + t)
			for _, qi := range qIdx {
				if bitvec.AndNotIsZero(block[t], queries[qi]) {
					visit(qi, setID)
				}
			}
		}
	}
	return qIdx
}
