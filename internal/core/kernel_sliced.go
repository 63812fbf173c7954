package core

import (
	"math/bits"
	"sync/atomic"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/gpu"
	"tagmatch/internal/obs"
)

// Bit-sliced subset-match kernel, the only kernel the engine runs. The
// scalar kernel (kernel.go, a reference oracle) assigns one tag set
// per thread and spends three word operations per (set, query) subset
// check — 192 operations to test 64 sets. The sliced
// kernel instead reads the partition's sets column-transposed
// (bitvec.SlicedGroup: 64 sets per group), assigns one group per
// thread, and tests all 64 lanes at once: OR-ing the used column words
// at the query's zero bits into a running 64-wide hit word, with a
// per-column early exit as soon as no lane survives. Algorithm 4's
// common-prefix block pre-filter becomes a per-group gate — one
// three-word test against the group's signature intersection discards
// 64 sets before any column is touched. Matches leave through the same
// packed atomic-append result path (§3.3.1) as the scalar kernel, and
// the two flavors are pair-for-pair interchangeable (differential- and
// fuzz-tested against the scalar oracles).

// slicedGrid returns the launch geometry for the sliced kernels: one
// thread per 64-lane group, with max(1, blockDim/64) groups per block
// so a block covers roughly the same number of sets as a scalar-kernel
// block of blockDim threads. Groups never straddle blocks, so no pair
// can be emitted twice regardless of blockDim.
func slicedGrid(nGroups, blockDim int) gpu.Grid {
	gpb := blockDim / 64
	if gpb < 1 {
		gpb = 1
	}
	return gpu.Grid{
		Blocks:   (nGroups + gpb - 1) / gpb,
		BlockDim: gpb,
	}
}

// slicedStats accumulates kernel telemetry in locals; flush performs
// one bulk atomic add per thread block (per batch on the host path).
type slicedStats struct {
	gateChecks, gatePruned int64
	groupScans, colsWalked int64
	blocks, blocksPruned   int64 // group-gate analogue of the prefilter block counters
}

func (st *slicedStats) flush(pf *obs.PartitionCounters, kc *obs.KernelCounters) {
	if pf != nil && st.blocks > 0 {
		pf.PrefilterBlocks.Add(st.blocks)
		pf.PrefilterPruned.Add(st.blocksPruned)
	}
	if kc == nil {
		return
	}
	kc.GateChecks.Add(st.gateChecks)
	kc.GatePruned.Add(st.gatePruned)
	kc.GroupScans.Add(st.groupScans)
	kc.ColumnsWalked.Add(st.colsWalked)
	kc.Columns.Observe(st.colsWalked)
}

// matchGroup tests every query of the batch against one transposed
// group, emitting a (query, set) pair per surviving lane. base is the
// global set id of the group's lane 0.
func matchGroup(
	grp *bitvec.SlicedGroup,
	base uint32,
	qs []bitvec.Vector,
	gate bool,
	st *slicedStats,
	emit func(qi uint8, setID uint32),
) {
	survived := false
	for qi := range qs {
		if gate {
			st.gateChecks++
			if !bitvec.AndNotIsZero(grp.Gate, qs[qi]) {
				// Some bit shared by ALL 64 members is absent from the
				// query: no member can be a subset of it.
				st.gatePruned++
				continue
			}
		}
		survived = true
		hits, cols := grp.SubsetLanesCols(qs[qi])
		st.groupScans++
		st.colsWalked += int64(cols)
		for hits != 0 {
			l := bits.TrailingZeros64(hits)
			emit(uint8(qi), base+uint32(l))
			hits &= hits - 1
		}
	}
	if gate {
		st.blocks++
		if !survived {
			st.blocksPruned++
		}
	}
}

// slicedLaunch is the argument block of one bit-sliced subset-match
// kernel launch for one batch over one partition, the transposed
// counterpart of matchKernelAt; run is the kernel. groups is the
// device-resident transposed index (full index in replicated mode, the
// device's shard or an extent otherwise); the kernel reads the slice
// [grpOff, grpOff+nGroups). globalBase is the global set id of the
// partition's first set; gate enables the per-group intersection
// pre-filter (Config.DisablePrefilter turns it off). A stream slot
// keeps one slicedLaunch and its bound run method for its whole life,
// so a dispatch fills the block instead of allocating a kernel closure.
type slicedLaunch struct {
	groups                      *gpu.Buffer[bitvec.SlicedGroup]
	grpOff, nGroups, globalBase int
	qsrc                        querySrc
	hdr                         *gpu.Buffer[uint32]
	pairs                       *gpu.Buffer[byte]
	maxPairs                    int
	gate                        bool
	pf                          *obs.PartitionCounters
	kc                          *obs.KernelCounters
}

func (l *slicedLaunch) run(b *gpu.BlockCtx) {
	gs := l.groups.Data()[l.grpOff : l.grpOff+l.nGroups]
	qs := l.qsrc.gather()
	h, out := l.hdr.Data(), l.pairs.Data()
	if b.FirstGlobalID() >= len(gs) {
		return
	}
	var st slicedStats
	b.Threads(func(tid int) {
		g := b.GlobalID(tid)
		if g >= len(gs) {
			return
		}
		matchGroup(&gs[g], uint32(l.globalBase+g*64), qs, l.gate, &st,
			func(qi uint8, setID uint32) {
				emitPacked(b, h, out, l.maxPairs, qi, setID)
			})
	})
	st.flush(l.pf, l.kc)
}

// slicedMatchKernelAt returns the bit-sliced kernel for a one-off
// launch (see slicedLaunch).
func slicedMatchKernelAt(
	groups *gpu.Buffer[bitvec.SlicedGroup],
	grpOff, nGroups, globalBase int,
	qsrc querySrc,
	hdr *gpu.Buffer[uint32],
	pairs *gpu.Buffer[byte],
	maxPairs int,
	gate bool,
	pf *obs.PartitionCounters,
	kc *obs.KernelCounters,
) gpu.KernelFunc {
	l := &slicedLaunch{
		groups: groups, grpOff: grpOff, nGroups: nGroups, globalBase: globalBase,
		qsrc: qsrc, hdr: hdr, pairs: pairs, maxPairs: maxPairs, gate: gate, pf: pf, kc: kc,
	}
	return l.run
}

// slicedSplitMatchKernelAt is the sliced kernel with the split output
// layout (two separate id arrays; the ablation §3.3.1 rejects).
func slicedSplitMatchKernelAt(
	groups *gpu.Buffer[bitvec.SlicedGroup],
	grpOff, nGroups, globalBase int,
	qsrc querySrc,
	outQ *gpu.Buffer[uint32],
	outS *gpu.Buffer[uint32],
	maxPairs int,
	gate bool,
	pf *obs.PartitionCounters,
	kc *obs.KernelCounters,
) gpu.KernelFunc {
	return func(b *gpu.BlockCtx) {
		gs := groups.Data()[grpOff : grpOff+nGroups]
		qs := qsrc.gather()
		qout, sout := outQ.Data(), outS.Data()
		if b.FirstGlobalID() >= len(gs) {
			return
		}
		var st slicedStats
		b.Threads(func(tid int) {
			g := b.GlobalID(tid)
			if g >= len(gs) {
				return
			}
			matchGroup(&gs[g], uint32(globalBase+g*64), qs, gate, &st,
				func(qi uint8, setID uint32) {
					idx := int(b.AtomicAddU32(&qout[0], 1))
					if idx >= maxPairs {
						atomic.StoreUint32(&qout[1], 1)
						return
					}
					qout[splitHeaderWords+idx] = uint32(qi)
					sout[idx] = setID
				})
		})
		st.flush(pf, kc)
	}
}

// cpuMatchBatchSliced runs the bit-sliced subset match for a whole
// batch on the host: the CPU-only execution path and the overflow/fault
// fallback. Pair-for-pair equivalent to the scalar cpuMatchBatch oracle.
func cpuMatchBatchSliced(
	groups []bitvec.SlicedGroup, // the partition's slice of the transposed index
	globalBase int, // global set id of the partition's first set
	queries []bitvec.Vector,
	gate bool,
	pf *obs.PartitionCounters,
	kc *obs.KernelCounters,
	visit func(q uint8, s uint32),
) {
	var st slicedStats
	for g := range groups {
		matchGroup(&groups[g], uint32(globalBase+g*64), queries, gate, &st, visit)
	}
	st.flush(pf, kc)
}
