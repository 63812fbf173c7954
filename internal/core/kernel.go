package core

import (
	"encoding/binary"
	"sync/atomic"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/gpu"
	"tagmatch/internal/obs"
)

// Result layout (§3.3.1). A (query, set) pair uses an 8-bit query id (its
// index within the batch) and a 32-bit set id. A naive struct would pad
// each pair to 64 bits, wasting 38% of memory and bus bandwidth; storing
// ids in two separate arrays would avoid the waste but require two result
// copies. TagMatch instead packs results in groups of four pairs — four
// query-id bytes followed by four little-endian 32-bit set ids:
//
//	| q1 q2 q3 q4 | s1 s1 s1 s1 | s2 .. | s3 .. | s4 .. |   (20 bytes)
//
// which is byte-dense (worst-case loss: the unused lanes of the final
// group) and needs a single copy.
//
// The pair counter and the overflow flag live in a separate two-word
// header buffer so the kernel's atomic append has a stable address and
// the host can reset it with one tiny H2D transfer per batch.
const (
	resHeaderWords   = 2  // header buffer: [pair counter, overflow flag]
	bytesPerGroup    = 20 // 4 query-id bytes + 4×4 set-id bytes
	splitHeaderWords = 2  // split-layout ablation: counter + overflow

	// maxBatchSize bounds Config.BatchSize: query ids within a batch are
	// uint8 throughout the kernels and the reduce stage, so a larger
	// batch would alias query indices. Config validation enforces it.
	maxBatchSize = 256
)

// pairBufBytes returns the byte size of a packed pair buffer holding up
// to maxPairs pairs.
func pairBufBytes(maxPairs int) int {
	return ((maxPairs + 3) / 4) * bytesPerGroup
}

// emitPacked appends one (query, set) pair to the packed result buffer.
// Each pair writes to byte addresses owned exclusively by its slot, so
// concurrent emits from different threads never touch the same byte.
func emitPacked(b *gpu.BlockCtx, hdr []uint32, pairs []byte, maxPairs int, q uint8, setID uint32) {
	idx := int(b.AtomicAddU32(&hdr[0], 1))
	if idx >= maxPairs {
		atomic.StoreUint32(&hdr[1], 1) // overflow: host re-runs the batch on CPU
		return
	}
	base := (idx / 4) * bytesPerGroup
	lane := idx % 4
	pairs[base+lane] = q
	binary.LittleEndian.PutUint32(pairs[base+4+4*lane:], setID)
}

// decodePacked yields the first count pairs of a packed result buffer.
func decodePacked(packed []byte, count int, visit func(q uint8, s uint32)) {
	for idx := 0; idx < count; idx++ {
		base := (idx / 4) * bytesPerGroup
		lane := idx % 4
		visit(packed[base+lane], binary.LittleEndian.Uint32(packed[base+4+4*lane:]))
	}
}

// blockPrefilter implements Algorithm 4: compute the block's common
// signature prefix length — one XOR between the block's first and last
// set, valid because the tagset table is lexicographically sorted — and
// collect into block-shared memory the indices of the queries that
// contain that prefix. The prefix-containment test runs fused
// (PrefixSubsetOf), so no prefix vector is materialized on the
// per-block hot path. Returns nil when no query survives.
func blockPrefilter(b *gpu.BlockCtx, blockSets []bitvec.Vector, qs []bitvec.Vector) []uint8 {
	prefixLen := bitvec.CommonPrefixLen(blockSets[0], blockSets[len(blockSets)-1])
	first := blockSets[0]
	shared := make([]uint8, 0, len(qs)) // block shared memory
	b.Threads(func(tid int) {
		// Threads stride through the original batch in parallel
		// (Algorithm 4's while loop); block-sequential execution in the
		// simulator keeps the appends well-ordered without the atomic.
		for i := tid; i < len(qs); i += b.Grid.BlockDim {
			if first.PrefixSubsetOf(prefixLen, qs[i]) {
				shared = append(shared, uint8(i))
			}
		}
	})
	if len(shared) == 0 {
		return nil
	}
	return shared
}

// matchKernelAt returns the scalar subset-match kernel (Algorithms 3 and
// 4) for one batch over one partition. The engine never launches it: it
// is the reference flavor KernelBenchmark times against the bit-sliced
// kernel, and a differential oracle in the tests.
//
//   - tagsets: a device-resident row-major tagset table; the kernel
//     reads the slice [partOff, partOff+partLen).
//   - globalBase: global set id of the partition's first set, used to
//     produce globally meaningful set ids in the output.
//   - qsrc: the batch's device-resident query signatures — a dense
//     per-batch upload, or indices into the device's query window.
//   - hdr, pairs: result header and packed pair buffer.
//   - pf: optional per-partition observability counters; the kernel
//     reports prefilter effectiveness (blocks evaluated vs. fully
//     pruned) through it.
//
// Each thread owns one tag set (the paper's thread_id); the block-level
// pre-filter prunes the query batch before the per-set subset checks.
func matchKernelAt(
	tagsets *gpu.Buffer[bitvec.Vector],
	partOff, partLen, globalBase int,
	qsrc querySrc,
	hdr *gpu.Buffer[uint32],
	pairs *gpu.Buffer[byte],
	maxPairs int,
	prefilter bool,
	pf *obs.PartitionCounters,
) gpu.KernelFunc {
	return func(b *gpu.BlockCtx) {
		sets := tagsets.Data()[partOff : partOff+partLen]
		qs := qsrc.gather()
		h, out := hdr.Data(), pairs.Data()

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

		// Main subset match (Algorithm 3): one thread per tag set, three
		// block operations per subset check, atomic append of results.
		b.Threads(func(tid int) {
			if tid >= len(blockSets) {
				return
			}
			set := blockSets[tid]
			setID := uint32(globalBase + first + tid)
			if prefilter {
				for _, qi := range shared {
					if set.SubsetOf(qs[qi]) {
						emitPacked(b, h, out, maxPairs, qi, setID)
					}
				}
			} else {
				for i := range qs {
					if set.SubsetOf(qs[i]) {
						emitPacked(b, h, out, maxPairs, uint8(i), setID)
					}
				}
			}
		})
	}
}
