package core

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/bloom"
	"tagmatch/internal/workload"
)

func randomSets(n, tagsPerSet int, seed int64) []bitvec.Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]bitvec.Vector, n)
	seen := make(map[bitvec.Vector]bool, n)
	for i := 0; i < n; {
		var v bitvec.Vector
		for j := 0; j < tagsPerSet*7; j++ { // ~7 bits per tag, like Bloom k=7
			v.Set(rng.Intn(bitvec.W))
		}
		if seen[v] {
			continue
		}
		seen[v] = true
		out[i] = v
		i++
	}
	return out
}

// checkPartitionInvariants verifies the Algorithm 1 postconditions:
// every input set appears in exactly one partition, and every member of a
// partition contains the partition's mask.
func checkPartitionInvariants(t *testing.T, sets []bitvec.Vector, specs []partitionSpec, maxP int) {
	t.Helper()
	seen := make([]int, len(sets))
	for pi, spec := range specs {
		if len(spec.members) == 0 {
			t.Fatalf("partition %d is empty", pi)
		}
		for _, m := range spec.members {
			seen[m]++
			if !spec.mask.SubsetOf(sets[m]) {
				t.Fatalf("partition %d: member %d does not contain mask", pi, m)
			}
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("set %d appears in %d partitions, want 1", i, c)
		}
	}
	// Size bound: only violable when all 192 pivot bits were exhausted,
	// which cannot happen for these diverse random sets.
	for pi, spec := range specs {
		if len(spec.members) > maxP {
			t.Fatalf("partition %d has %d members > MAX_P %d", pi, len(spec.members), maxP)
		}
		if spec.mask.IsZero() {
			t.Fatalf("partition %d has empty mask", pi)
		}
	}
}

func TestBalancedPartitionInvariants(t *testing.T) {
	sets := randomSets(5000, 5, 1)
	const maxP = 200
	specs := balancedPartition(sets, maxP)
	checkPartitionInvariants(t, sets, specs, maxP)
	if len(specs) < 5000/maxP {
		t.Fatalf("only %d partitions; cannot cover %d sets with max %d", len(specs), 5000, maxP)
	}
}

func TestBalancedPartitionSmallInputs(t *testing.T) {
	if got := balancedPartition(nil, 100); got != nil {
		t.Fatal("empty database should produce no partitions")
	}
	one := []bitvec.Vector{bitvec.FromOnes(3, 77)}
	specs := balancedPartition(one, 100)
	if len(specs) != 1 || len(specs[0].members) != 1 {
		t.Fatalf("single set should form one partition: %+v", specs)
	}
	if specs[0].mask.IsZero() {
		t.Fatal("single-set partition must still acquire a non-empty mask")
	}
}

func TestBalancedPartitionMaxPOne(t *testing.T) {
	sets := randomSets(64, 4, 2)
	specs := balancedPartition(sets, 1)
	checkPartitionInvariants(t, sets, specs, 1)
	if len(specs) != 64 {
		t.Fatalf("with MAX_P=1, want 64 singleton partitions, got %d", len(specs))
	}
}

func TestBalancedPartitionBalance(t *testing.T) {
	// With pivot bits chosen at ~50% frequency, partitions should be
	// reasonably balanced: no partition should hold more than a tiny
	// fraction of the database when MAX_P is small.
	sets := randomSets(20000, 5, 3)
	const maxP = 500
	specs := balancedPartition(sets, maxP)
	largest := 0
	for _, s := range specs {
		if len(s.members) > largest {
			largest = len(s.members)
		}
	}
	if largest > maxP {
		t.Fatalf("largest partition %d exceeds MAX_P %d", largest, maxP)
	}
	// Average fill should not be pathologically small either (balanced
	// splits roughly halve until under MAX_P).
	avg := float64(len(sets)) / float64(len(specs))
	if avg < float64(maxP)/20 {
		t.Fatalf("average partition fill %.1f suspiciously small (specs=%d)", avg, len(specs))
	}
}

func TestBalancedPartitionNearDuplicateSets(t *testing.T) {
	// Sets sharing almost all bits: the partitioner must terminate and
	// cover everything even when most pivots split unevenly.
	base := bitvec.FromOnes(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	sets := make([]bitvec.Vector, 100)
	for i := range sets {
		v := base
		v.Set(20 + i)
		sets[i] = v
	}
	specs := balancedPartition(sets, 10)
	checkPartitionInvariants(t, sets, specs, 100 /* allow loose bound */)
	total := 0
	for _, s := range specs {
		total += len(s.members)
	}
	if total != 100 {
		t.Fatalf("covered %d sets, want 100", total)
	}
}

func TestBalancedPartitionIdenticalPathology(t *testing.T) {
	// Two distinct vectors, one the subset of the other, MAX_P=1: the
	// algorithm must terminate (used bits grow monotonically) and cover
	// both.
	a := bitvec.FromOnes(5)
	b := bitvec.FromOnes(5, 9)
	specs := balancedPartition([]bitvec.Vector{a, b}, 1)
	total := 0
	for _, s := range specs {
		total += len(s.members)
	}
	if total != 2 {
		t.Fatalf("covered %d, want 2 (specs=%v)", total, specs)
	}
}

// pivotOf counts members' bit frequencies and runs pickPivot on them.
func pivotOf(sets []bitvec.Vector, members []int32, used bitvec.Vector) int {
	vs := make([]bitvec.Vector, len(members))
	for i, m := range members {
		vs[i] = sets[m]
	}
	var freq [bitvec.W]int32
	addFreq(&freq, vs)
	return pickPivot(&freq, int32(len(vs)), used)
}

func TestPickPivotPrefersBalanced(t *testing.T) {
	// Bit 10 set in half the sets, bit 20 in all, bit 30 in none.
	sets := make([]bitvec.Vector, 10)
	for i := range sets {
		sets[i].Set(20)
		if i < 5 {
			sets[i].Set(10)
		}
	}
	members := make([]int32, len(sets))
	for i := range members {
		members[i] = int32(i)
	}
	var used bitvec.Vector
	if got := pivotOf(sets, members, used); got != 10 {
		t.Fatalf("pivot = %d, want 10 (the 50%% bit)", got)
	}
	used.Set(10)
	// With bit 10 used, remaining candidates are all 0%/100% bits; the
	// fallback must still return an unused bit.
	got := pivotOf(sets, members, used)
	if got < 0 || used.Test(got) {
		t.Fatalf("fallback pivot = %d", got)
	}
}

func TestPickPivotExhausted(t *testing.T) {
	sets := []bitvec.Vector{bitvec.FromOnes(0)}
	members := []int32{0}
	var used bitvec.Vector
	for i := 0; i < bitvec.W; i++ {
		used.Set(i)
	}
	if got := pivotOf(sets, members, used); got != -1 {
		t.Fatalf("pivot = %d with all bits used, want -1", got)
	}
}

func TestSortMembersLexicographically(t *testing.T) {
	sets := randomSets(200, 5, 4)
	members := make([]int32, len(sets))
	for i := range members {
		members[i] = int32(i)
	}
	sortMembersLexicographically(sets, members)
	for i := 1; i < len(members); i++ {
		if bitvec.Less(sets[members[i]], sets[members[i-1]]) {
			t.Fatalf("members not sorted at %d", i)
		}
	}
}

// Property: partitioning is a partition in the mathematical sense for
// arbitrary (deduplicated) inputs and arbitrary small MAX_P.
func TestQuickPartitionCovers(t *testing.T) {
	f := func(raw []bitvec.Vector, maxP uint8) bool {
		seen := map[bitvec.Vector]bool{}
		var sets []bitvec.Vector
		for _, v := range raw {
			if !seen[v] {
				seen[v] = true
				sets = append(sets, v)
			}
		}
		specs := balancedPartition(sets, int(maxP%32)+1)
		count := make([]int, len(sets))
		for _, s := range specs {
			for _, m := range s.members {
				if !s.mask.SubsetOf(sets[m]) {
					return false
				}
				count[m]++
			}
		}
		for _, c := range count {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFirstFitPartitionCovers(t *testing.T) {
	sets := randomSets(3000, 5, 5)
	specs := firstFitPartition(sets, 250)
	seen := make([]int, len(sets))
	for _, s := range specs {
		if len(s.members) > 250 {
			t.Fatalf("chunk size %d > 250", len(s.members))
		}
		for _, m := range s.members {
			seen[m]++
			if !s.mask.SubsetOf(sets[m]) {
				t.Fatal("first-fit mask not contained in member")
			}
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("set %d covered %d times", i, c)
		}
	}
	if firstFitPartition(nil, 10) != nil {
		t.Fatal("empty input should yield no partitions")
	}
}

// recountPartition is the reference Algorithm 1: the same depth-first
// recursion as balancedPartition, but every node recounts all 192 bit
// frequencies over its members and splits into freshly appended slices.
// It also returns the member visits spent counting. balancedPartition
// must reproduce its output exactly: masks, partition order and member
// order.
func recountPartition(sets []bitvec.Vector, maxP int) ([]partitionSpec, int) {
	if len(sets) == 0 {
		return nil, 0
	}
	if maxP < 1 {
		maxP = 1
	}
	all := make([]int32, len(sets))
	for i := range all {
		all[i] = int32(i)
	}

	type work struct {
		mask    bitvec.Vector
		used    bitvec.Vector
		members []int32
	}
	queue := []work{{members: all}}
	var out []partitionSpec
	visits := 0

	for len(queue) > 0 {
		w := queue[len(queue)-1]
		queue = queue[:len(queue)-1]

		if len(w.members) <= maxP && !w.mask.IsZero() {
			out = append(out, partitionSpec{mask: w.mask, members: w.members})
			continue
		}

		pivot := recountPickPivot(sets, w.members, w.used)
		if pivot < 0 {
			out = append(out, partitionSpec{mask: w.mask, members: w.members})
			continue
		}
		visits += len(w.members)
		w.used.Set(pivot)

		var p0, p1 []int32
		for _, idx := range w.members {
			if sets[idx].Test(pivot) {
				p1 = append(p1, idx)
			} else {
				p0 = append(p0, idx)
			}
		}
		if len(p0) > 0 {
			queue = append(queue, work{mask: w.mask, used: w.used, members: p0})
		}
		if len(p1) > 0 {
			m := w.mask
			m.Set(pivot)
			queue = append(queue, work{mask: m, used: w.used, members: p1})
		}
	}
	return out, visits
}

// recountPickPivot is the reference pivot rule: count one increment per
// set bit of every member, then pick the unused bit closest to 50%, ties
// to the lowest position, falling back to the first unused 0%/100% bit.
func recountPickPivot(sets []bitvec.Vector, members []int32, used bitvec.Vector) int {
	var freq [bitvec.W]int32
	for _, idx := range members {
		v := sets[idx]
		for b := 0; b < bitvec.Blocks; b++ {
			blk := v[b]
			for blk != 0 {
				i := bits.LeadingZeros64(blk)
				freq[b*64+i]++
				blk &^= 1 << (63 - uint(i))
			}
		}
	}
	n := int32(len(members))
	half := n / 2
	best, bestDist := -1, int32(1<<30)
	fallback := -1
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

// workloadSigs returns the distinct Bloom signatures of the first users
// users' interests from the Twitter-like workload generator, in
// first-seen order.
func workloadSigs(tb testing.TB, users int, seed int64) []bitvec.Vector {
	tb.Helper()
	gen, err := workload.New(workload.NewConfig(users, seed))
	if err != nil {
		tb.Fatal(err)
	}
	seen := make(map[bitvec.Vector]bool)
	var sigs []bitvec.Vector
	gen.Generate(users, func(in workload.Interest) {
		if sig := bloom.Signature(in.Tags); !seen[sig] {
			seen[sig] = true
			sigs = append(sigs, sig)
		}
	})
	return sigs
}

// checkMatchesRecount asserts that balancedPartition returns exactly the
// reference partitioner's specs, and returns both visit counts.
func checkMatchesRecount(t *testing.T, sets []bitvec.Vector, maxP int) (counted, recounted int) {
	t.Helper()
	got, counted := balancedPartitionCounted(sets, maxP)
	want, recounted := recountPartition(sets, maxP)
	if len(got) != len(want) {
		t.Fatalf("maxP=%d: %d partitions, reference has %d", maxP, len(got), len(want))
	}
	for i := range want {
		if got[i].mask != want[i].mask {
			t.Fatalf("maxP=%d partition %d: mask %s, reference %s", maxP, i, got[i].mask.Hex(), want[i].mask.Hex())
		}
		if !slices.Equal(got[i].members, want[i].members) {
			t.Fatalf("maxP=%d partition %d: members differ from the reference (%d vs %d members)",
				maxP, i, len(got[i].members), len(want[i].members))
		}
	}
	return counted, recounted
}

// TestBalancedPartitionMatchesRecount is the parity test: on workload
// signatures and on the pathological inputs of Algorithm 1, the
// histogram-subtraction partitioner produces the reference output bit
// for bit.
func TestBalancedPartitionMatchesRecount(t *testing.T) {
	for _, tc := range []struct {
		users int
		seed  int64
	}{{3000, 1}, {12000, 2}} {
		sets := workloadSigs(t, tc.users, tc.seed)
		for _, maxP := range []int{1, 64, 1024} {
			counted, recounted := checkMatchesRecount(t, sets, maxP)
			// Counting only the smaller child must at least halve the
			// reference's per-level recount work.
			if maxP > 1 && 2*counted > recounted {
				t.Errorf("users=%d maxP=%d: %d counting visits, reference %d",
					tc.users, maxP, counted, recounted)
			}
		}
	}

	// Thousands of copies of one signature: no bit ever splits them, so
	// every bit is consumed and the node is accepted at pivot < 0.
	dup := make([]bitvec.Vector, 3000)
	for i := range dup {
		dup[i] = bitvec.FromOnes(3, 70, 150)
	}
	checkMatchesRecount(t, dup, 64)
	checkMatchesRecount(t, dup[:1], 1)

	// The empty signature among near-duplicates of one base set.
	near := []bitvec.Vector{{}}
	base := bitvec.FromOnes(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	for i := 0; i < 150; i++ {
		v := base
		v.Set(20 + i%170)
		if i%3 == 0 {
			v.Clear(1 + i%10)
		}
		near = append(near, v)
	}
	near = append(near, bitvec.Vector{}, base)
	for _, maxP := range []int{1, 10, 100} {
		checkMatchesRecount(t, near, maxP)
	}

	if got, counted := balancedPartitionCounted(nil, 10); got != nil || counted != 0 {
		t.Fatalf("empty input: %d specs, %d visits", len(got), counted)
	}
}

// FuzzBalancedPartition compares balancedPartition against the reference
// on signatures read from fuzz bytes: the first byte picks MAX_P, a byte
// below 192 sets that bit in the current signature, and any other byte
// ends it (so repeated separators yield empty signatures and duplicates).
func FuzzBalancedPartition(f *testing.F) {
	f.Add([]byte{3, 1, 2, 200, 1, 3, 200, 2, 3, 200, 200, 1, 2, 3})
	f.Add([]byte{0, 5, 255, 5, 255, 5, 255, 5, 255})
	f.Add([]byte{7, 0, 64, 128, 191, 192, 63, 127, 192, 10})
	f.Add([]byte{48, 1, 48, 200, 0, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		maxP := int(data[0]%16) + 1
		var sets []bitvec.Vector
		var cur bitvec.Vector
		for _, b := range data[1:] {
			if int(b) < bitvec.W {
				cur.Set(int(b))
				continue
			}
			sets = append(sets, cur)
			cur = bitvec.Vector{}
		}
		sets = append(sets, cur)
		checkMatchesRecount(t, sets, maxP)
	})
}

// BenchmarkBalancedPartition times the partitioner alone on workload
// signatures at the default MAX_P. visits/set is the number of times a
// set is counted into a bit histogram; it stays well under the recursion
// depth unless nodes are recounted level by level.
func BenchmarkBalancedPartition(b *testing.B) {
	sets := workloadSigs(b, 40000, 1)
	var cfg Config
	cfg.applyDefaults()
	maxP := cfg.MaxPartitionSize
	var counted int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, counted = balancedPartitionCounted(sets, maxP)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sets)), "ns/set")
	b.ReportMetric(float64(counted)/float64(len(sets)), "visits/set")
}
