package core

import (
	"math/bits"
	"sort"

	"tagmatch/internal/bitvec"
)

// partitionSpec is the output of the balanced partitioner: a mask and the
// indices (into the caller's set slice) of the partition members.
type partitionSpec struct {
	mask    bitvec.Vector
	members []int32
}

// balancedPartition implements Algorithm 1 of the paper: recursively split
// the database on the unused bit whose one-frequency is closest to 50%
// until every partition has at most maxP members and a non-empty mask.
//
// Splitting always consumes the pivot bit, so the recursion terminates
// even on pathological inputs; if every bit has been used and a partition
// is still oversized or mask-less (possible only with near-duplicate
// signatures), the partition is accepted as is.
//
// The recursion never recounts a node it has to split: bit frequencies are
// counted once at the root, and after each split only the smaller child
// is counted — the larger one's histogram is the parent's minus the
// smaller's. A set is therefore counted only while it sits in the smaller
// half, O(log n) times rather than once per level. Members are split
// stably inside one working copy of the signatures, so every partition is
// a contiguous run of it and member order matches a recount-per-level
// partitioner exactly (see DESIGN.md §15).
func balancedPartition(sets []bitvec.Vector, maxP int) []partitionSpec {
	specs, _ := balancedPartitionCounted(sets, maxP)
	return specs
}

// balancedPartitionCounted is balancedPartition that also returns the
// number of member visits spent counting bit frequencies (n at the root
// plus one per member of every counted child), for the layer benchmark.
func balancedPartitionCounted(sets []bitvec.Vector, maxP int) ([]partitionSpec, int) {
	if len(sets) == 0 {
		return nil, 0
	}
	if maxP < 1 {
		maxP = 1
	}
	vs := append([]bitvec.Vector(nil), sets...)
	ids := make([]int32, len(sets))
	for i := range ids {
		ids[i] = int32(i)
	}
	spareV := make([]bitvec.Vector, len(sets))
	spareI := make([]int32, len(sets))

	// A node owns vs[lo:hi] and ids[lo:hi]; freq is filled in only for
	// nodes that will be split.
	type node struct {
		lo, hi     int
		mask, used bitvec.Vector
		freq       [bitvec.W]int32
	}
	allUsed := bitvec.Vector{^uint64(0), ^uint64(0), ^uint64(0)}
	needsSplit := func(nd *node) bool {
		return (nd.hi-nd.lo > maxP || nd.mask.IsZero()) && nd.used != allUsed
	}
	stack := []node{{hi: len(vs)}}
	addFreq(&stack[0].freq, vs)
	counted := len(vs)
	var out []partitionSpec
	var small [bitvec.W]int32

	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		if !needsSplit(&w) {
			out = append(out, partitionSpec{mask: w.mask, members: ids[w.lo:w.hi:w.hi]})
			continue
		}
		pivot := pickPivot(&w.freq, int32(w.hi-w.lo), w.used)
		w.used.Set(pivot)
		mid := w.lo + splitOnBit(vs[w.lo:w.hi], ids[w.lo:w.hi], pivot, spareV, spareI)

		// Push the zero side first so the one side is split first, as in
		// the paper's depth-first recursion.
		n0 := len(stack)
		if mid > w.lo {
			stack = append(stack, node{lo: w.lo, hi: mid, mask: w.mask, used: w.used})
		}
		if w.hi > mid {
			m := w.mask
			m.Set(pivot)
			stack = append(stack, node{lo: mid, hi: w.hi, mask: m, used: w.used})
		}
		if len(stack)-n0 == 1 {
			// The pivot did not split the node: the child has its
			// parent's members, and so its histogram.
			if c := &stack[n0]; needsSplit(c) {
				c.freq = w.freq
			}
			continue
		}
		a, b := &stack[n0], &stack[n0+1] // a: smaller child, b: larger
		if a.hi-a.lo > b.hi-b.lo {
			a, b = b, a
		}
		needA, needB := needsSplit(a), needsSplit(b)
		if !needA && !needB {
			continue
		}
		small = [bitvec.W]int32{}
		addFreq(&small, vs[a.lo:a.hi])
		counted += a.hi - a.lo
		if needA {
			a.freq = small
		}
		if needB {
			for i := range b.freq {
				b.freq[i] = w.freq[i] - small[i]
			}
		}
	}
	return out, counted
}

// pickPivot returns the bit position not in used whose one-frequency
// freq[p] over n members is closest to 50%, or -1 when every bit is used.
// Frequencies of exactly 0 or n are deprioritized (they do not split the
// partition) but remain legal: consuming such a bit still makes progress
// because used_bits grows. Ties go to the lowest position.
func pickPivot(freq *[bitvec.W]int32, n int32, used bitvec.Vector) int {
	half := n / 2
	best, bestDist := -1, int32(1<<30)
	var fallback int = -1
	for p := 0; p < bitvec.W; p++ {
		if used.Test(p) {
			continue
		}
		f := freq[p]
		if f == 0 || f == n {
			if fallback < 0 {
				fallback = p
			}
			continue
		}
		d := f - half
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			best, bestDist = p, d
		}
	}
	if best >= 0 {
		return best
	}
	return fallback
}

// addFreq adds the per-position one-counts of vs to freq. The counting is
// word-parallel: for each of a signature's three words, a Harley-Seal
// carry-save adder tree folds sixteen signatures at a time into bit
// planes (ones, twos, fours, eights: bit i of a plane is one bit of
// position i's running count), and only the sixteens carry leaving the
// tree is scattered into freq. A signature thus costs a few word-wide
// AND/XOR/ORs instead of one increment per set bit.
func addFreq(freq *[bitvec.W]int32, vs []bitvec.Vector) {
	var ones, twos, fours, eights bitvec.Vector
	for ; len(vs) >= 16; vs = vs[16:] {
		v := vs[:16:16]
		for b := range ones {
			twosA, o := csa(ones[b], v[0][b], v[1][b])
			twosB, o := csa(o, v[2][b], v[3][b])
			foursA, t := csa(twos[b], twosA, twosB)
			twosA, o = csa(o, v[4][b], v[5][b])
			twosB, o = csa(o, v[6][b], v[7][b])
			foursB, t := csa(t, twosA, twosB)
			eightsA, f := csa(fours[b], foursA, foursB)
			twosA, o = csa(o, v[8][b], v[9][b])
			twosB, o = csa(o, v[10][b], v[11][b])
			foursA, t = csa(t, twosA, twosB)
			twosA, o = csa(o, v[12][b], v[13][b])
			twosB, o = csa(o, v[14][b], v[15][b])
			foursB, t = csa(t, twosA, twosB)
			eightsB, f := csa(f, foursA, foursB)
			sixteens, e := csa(eights[b], eightsA, eightsB)
			ones[b], twos[b], fours[b], eights[b] = o, t, f, e
			addPlane(freq, b, sixteens, 16)
		}
	}
	for _, v := range vs {
		for b := range ones {
			x := v[b]
			x, ones[b] = ones[b]&x, ones[b]^x
			x, twos[b] = twos[b]&x, twos[b]^x
			x, fours[b] = fours[b]&x, fours[b]^x
			x, eights[b] = eights[b]&x, eights[b]^x
			addPlane(freq, b, x, 16)
		}
	}
	for b := range ones {
		addPlane(freq, b, ones[b], 1)
		addPlane(freq, b, twos[b], 2)
		addPlane(freq, b, fours[b], 4)
		addPlane(freq, b, eights[b], 8)
	}
}

// csa is a carry-save adder over 64 independent bit positions: it sums
// three words and returns the carry and sum bits.
func csa(a, b, c uint64) (carry, sum uint64) {
	u := a ^ b
	return a&b | u&c, u ^ c
}

// addPlane adds weight to freq at every position set in plane, a bit
// plane of word b of the signatures.
func addPlane(freq *[bitvec.W]int32, b int, plane uint64, weight int32) {
	for plane != 0 {
		i := bits.LeadingZeros64(plane)
		freq[b*64+i] += weight
		plane &^= 1 << (63 - uint(i))
	}
}

// splitOnBit stably partitions vs (and ids in lockstep) on bit pivot:
// members without the bit move to the front, members with it to the back,
// each side keeping its relative order. spareV/spareI, at least len(vs)
// long, hold the one side in transit. It returns the zero side's length.
func splitOnBit(vs []bitvec.Vector, ids []int32, pivot int, spareV []bitvec.Vector, spareI []int32) int {
	// Branch-free: a ~50% pivot would mispredict every other member, so
	// each member is written to both sides and only one cursor advances.
	b, sh := pivot/64, uint(63-pivot%64)
	spareV, spareI = spareV[:len(vs)], spareI[:len(vs)]
	z, o := 0, 0
	for i, v := range vs {
		id := ids[i]
		bit := int(v[b]>>sh) & 1
		vs[z], ids[z] = v, id
		spareV[o], spareI[o] = v, id
		z += 1 - bit
		o += bit
	}
	copy(vs[z:], spareV[:o])
	copy(ids[z:], spareI[:o])
	return z
}

// firstFitPartition is the naive alternative used by the partitioning
// ablation: sort all sets lexicographically and cut them into runs of at
// most maxP, with each run's mask being the bitwise intersection of its
// members. Unlike Algorithm 1 the masks are whatever the data happens to
// share — frequently empty — so the partition table prunes poorly.
func firstFitPartition(sets []bitvec.Vector, maxP int) []partitionSpec {
	if len(sets) == 0 {
		return nil
	}
	if maxP < 1 {
		maxP = 1
	}
	order := make([]int32, len(sets))
	for i := range order {
		order[i] = int32(i)
	}
	sortMembersLexicographically(sets, order)
	var out []partitionSpec
	for off := 0; off < len(order); off += maxP {
		end := off + maxP
		if end > len(order) {
			end = len(order)
		}
		members := order[off:end]
		mask := sets[members[0]]
		for _, m := range members[1:] {
			mask = mask.And(sets[m])
		}
		out = append(out, partitionSpec{mask: mask, members: members})
	}
	return out
}

// sortMembersLexicographically orders a partition's members in the
// lexicographic bit order of their signatures so that consecutive sets —
// and therefore the sets of one GPU thread block — share long common
// prefixes, which is what makes the Algorithm 4 pre-filter effective.
func sortMembersLexicographically(sets []bitvec.Vector, members []int32) {
	sort.Slice(members, func(i, j int) bool {
		return bitvec.Less(sets[members[i]], sets[members[j]])
	})
}
