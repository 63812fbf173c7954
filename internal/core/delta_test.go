package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/gpu"
)

// deltaEngineVariants returns the execution paths the live-update
// contract is pinned on: the CPU host match and the GPU bit-sliced
// kernel. Add/remove visibility must hold on both; the scalar kernel
// survives only as a test oracle, held to pair-for-pair parity with the
// sliced one by the kernel differential tests.
func deltaEngineVariants(t *testing.T, base Config) map[string]*Engine {
	t.Helper()
	variants := map[string]int{"cpu": 0, "gpu-sliced": 2}
	out := make(map[string]*Engine, len(variants))
	for name, gpus := range variants {
		cfg := base
		for i := 0; i < gpus; i++ {
			cfg.Devices = append(cfg.Devices, newTestGPU(t, 2))
		}
		if gpus > 0 {
			cfg.StreamsPerDevice = 2
			cfg.Replicate = true
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		out[name] = e
	}
	return out
}

// TestDeltaVisibility pins the headline live-update contract on every
// kernel flavor: an AddSignature is matchable immediately — no
// Consolidate — and a RemoveSignature disappears immediately from both
// Match and MatchUnique; an add followed by a remove never surfaces; and
// consolidating afterward changes no answer.
func TestDeltaVisibility(t *testing.T) {
	db := makeTestDB(800, 5, 2, 151)
	for name, e := range deltaEngineVariants(t, Config{
		MaxPartitionSize: 100, BatchSize: 16, Threads: 2,
	}) {
		t.Run(name, func(t *testing.T) {
			db.load(e)
			if err := e.Consolidate(); err != nil {
				t.Fatal(err)
			}

			// A brand-new signature, disjoint from the generator's tag
			// universe, staged but not consolidated.
			fresh := randomSets(1, 6, 9000)[0]
			probe := fresh.Or(randomSets(1, 3, 9001)[0])
			e.AddSignature(fresh, 777)
			got, err := e.MatchSignature(probe, false)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != "[777]" {
				t.Fatalf("staged add not visible: %v, want [777]", got)
			}
			if e.Stats().DeltaMatches == 0 {
				t.Fatal("overlay matched but DeltaMatches counter is zero")
			}

			// Removing a main-index entry tombstones it out of Match and
			// MatchUnique immediately.
			victimSig, victimKeys := db.sigs[3], db.keys[3]
			e.RemoveSignature(victimSig, victimKeys[0])
			q := victimSig.Or(randomSets(1, 2, 9002)[0])
			want := db.expected(q, false)
			want = deleteFirstKey(want, victimKeys[0])
			got, err = e.MatchSignature(q, false)
			if err != nil {
				t.Fatal(err)
			}
			sortKeysSlice(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("tombstoned key still visible: got %v want %v", got, want)
			}
			if len(victimKeys) == 1 {
				gotU, err := e.MatchSignature(q, true)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range gotU {
					if k == victimKeys[0] {
						t.Fatalf("tombstoned key %d still in unique answer", k)
					}
				}
			}

			// Exactly-once: an add immediately cancelled by a remove must
			// never surface, before or after consolidation.
			ghost := randomSets(1, 6, 9003)[0]
			e.AddSignature(ghost, 888)
			e.RemoveSignature(ghost, 888)
			if got, _ := e.MatchSignature(ghost, false); len(got) != 0 {
				t.Fatalf("cancelled add surfaced: %v", got)
			}

			// Re-adding the removed key through the overlay restores it.
			e.AddSignature(victimSig, victimKeys[0])
			got, _ = e.MatchSignature(q, false)
			sortKeysSlice(got)
			wantBack := db.expected(q, false)
			if fmt.Sprint(got) != fmt.Sprint(wantBack) {
				t.Fatalf("re-added key missing: got %v want %v", got, wantBack)
			}

			// Consolidating folds the overlay into the main index with
			// byte-identical answers.
			if err := e.Consolidate(); err != nil {
				t.Fatal(err)
			}
			if e.PendingOps() != 0 {
				t.Fatalf("PendingOps = %d after consolidate", e.PendingOps())
			}
			got, _ = e.MatchSignature(probe, false)
			if fmt.Sprint(got) != "[777]" {
				t.Fatalf("consolidated add lost: %v", got)
			}
			got, _ = e.MatchSignature(q, false)
			sortKeysSlice(got)
			if fmt.Sprint(got) != fmt.Sprint(wantBack) {
				t.Fatalf("post-consolidate divergence: got %v want %v", got, wantBack)
			}
			if got, _ := e.MatchSignature(ghost, false); len(got) != 0 {
				t.Fatalf("cancelled add surfaced after consolidate: %v", got)
			}
		})
	}
}

func deleteFirstKey(ks []Key, k Key) []Key {
	for i := range ks {
		if ks[i] == k {
			return append(ks[:i:i], ks[i+1:]...)
		}
	}
	return ks
}

// TestDeltaExactVerify checks that overlay matches respect exact tag
// verification: a staged add whose signature collides with a query must
// still be filtered by string comparison.
func TestDeltaExactVerify(t *testing.T) {
	e, err := New(Config{Threads: 1, ExactVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.AddSet([]string{"a", "b"}, 1)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	e.AddSet([]string{"a", "c"}, 2) // staged only

	got, err := e.Match([]string{"a", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[2]" {
		t.Fatalf("exact overlay match = %v, want [2]", got)
	}
	// A query that covers neither set exactly returns nothing even if
	// signatures would pass the Bloom test.
	if got, _ := e.Match([]string{"a"}); len(got) != 0 {
		t.Fatalf("partial query matched staged set: %v", got)
	}
	// Tombstone with exact tags.
	e.RemoveSet([]string{"a", "b"}, 1)
	if got, _ := e.Match([]string{"a", "b"}); len(got) != 0 {
		t.Fatalf("tombstoned exact set still visible: %v", got)
	}
}

// TestDeltaTombstoneMultiset pins multiset semantics: when the same
// (signature, key) association exists twice in the main index, one
// remove suppresses exactly one copy, and a second remove suppresses the
// other.
func TestDeltaTombstoneMultiset(t *testing.T) {
	e, err := New(Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.AddSet([]string{"m"}, 5)
	e.AddSet([]string{"m"}, 5)
	e.AddSet([]string{"m"}, 6)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}

	e.RemoveSet([]string{"m"}, 5)
	got, _ := e.Match([]string{"m"})
	sortKeysSlice(got)
	if fmt.Sprint(got) != "[5 6]" {
		t.Fatalf("after one remove: %v, want [5 6]", got)
	}
	gotU, _ := e.MatchUnique([]string{"m"})
	sortKeysSlice(gotU)
	if fmt.Sprint(gotU) != "[5 6]" {
		t.Fatalf("unique after one remove: %v, want [5 6]", gotU)
	}
	if e.Stats().TombstoneSuppressed == 0 {
		t.Fatal("no tombstone suppressions recorded")
	}

	e.RemoveSet([]string{"m"}, 5)
	got, _ = e.Match([]string{"m"})
	if fmt.Sprint(got) != "[6]" {
		t.Fatalf("after two removes: %v, want [6]", got)
	}

	// Consolidation agrees.
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	got, _ = e.Match([]string{"m"})
	if fmt.Sprint(got) != "[6]" {
		t.Fatalf("after consolidate: %v, want [6]", got)
	}
}

// TestDeltaBackgroundConsolidate forces the auto-consolidation
// threshold low and verifies the background goroutine folds the overlay
// into the main index without any explicit Consolidate call: the
// auto-consolidation counter advances, the overlay settles back under
// its threshold with no fold in flight, and every key stays matchable
// throughout. A leftover suffix below DeltaMaxSets is by design never
// folded; it keeps serving through the overlay.
func TestDeltaBackgroundConsolidate(t *testing.T) {
	e, err := New(Config{
		MaxPartitionSize: 50, BatchSize: 16, Threads: 2,
		DeltaMaxSets: 16, DeltaMaxRatio: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	db := makeTestDB(400, 5, 1, 157)
	for i, sig := range db.sigs {
		e.AddSignature(sig, db.keys[i][0])
		if i%37 == 0 {
			// Interleave queries with staging; answers must always cover
			// what has been added so far.
			q := db.sigs[i].Or(randomSets(1, 2, int64(9100+i))[0])
			got, err := e.MatchSignature(q, false)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, k := range got {
				if k == db.keys[i][0] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("key %d staged at op %d not matchable", db.keys[i][0], i)
			}
		}
	}

	waitConsolidatorSettled(t, e)
	if n := e.PendingOps(); n >= 16 {
		t.Fatalf("%d ops left unfolded, want fewer than DeltaMaxSets", n)
	}

	verifyEngine(t, e, db, db.makeQueries(200, 158), false)
	if st := e.Stats(); st.LastSwapPause <= 0 {
		t.Fatalf("LastSwapPause = %v, want > 0", st.LastSwapPause)
	}
}

// waitConsolidatorSettled waits until the background consolidator has
// folded at least once and settled: with no fold in flight (checked
// while holding consolidateMu) the overlay is under its threshold, so
// no further fold starts until more ops are staged. The caller must
// not stage ops concurrently.
func waitConsolidatorSettled(t *testing.T, e *Engine) {
	t.Helper()
	settled := func() bool {
		if e.Stats().AutoConsolidations < 1 || !e.consolidateMu.TryLock() {
			return false
		}
		defer e.consolidateMu.Unlock()
		return !e.deltaOverThreshold()
	}
	deadline := time.Now().Add(20 * time.Second)
	for !settled() {
		if time.Now().After(deadline) {
			t.Fatalf("background consolidator never settled: %d auto-consolidations, %d pending",
				e.Stats().AutoConsolidations, e.PendingOps())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// holdBackgroundFold stages db's sets from index from on until the
// background consolidator takes consolidateMu, and parks that fold
// before its swap by holding submitMu for reading (a fold's Phase C needs
// it exclusively). It returns the index of the next unstaged set; the
// caller releases the fold with e.submitMu.RUnlock. Nothing may submit
// while the fold is parked.
func holdBackgroundFold(t *testing.T, e *Engine, db *testDB, from int) int {
	t.Helper()
	e.submitMu.RLock()
	deadline := time.Now().Add(20 * time.Second)
	for e.consolidateMu.TryLock() {
		e.consolidateMu.Unlock()
		if from < len(db.sigs) {
			e.AddSignature(db.sigs[from], db.keys[from][0])
			from++
		}
		if time.Now().After(deadline) {
			e.submitMu.RUnlock()
			t.Fatal("background consolidator never started a fold")
		}
		time.Sleep(time.Millisecond)
	}
	return from
}

// consolidateWhileHeld runs a synchronous Consolidate against a parked
// background fold: once the call waits for consolidateMu, it lets the
// call wait hold longer, then releases the fold. It returns how long the
// call was seen waiting before the release, and the Consolidate error.
func consolidateWhileHeld(t *testing.T, e *Engine, hold time.Duration) (time.Duration, error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- e.Consolidate() }()
	for e.syncWaiting.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	waiting := time.Now()
	time.Sleep(hold)
	held := time.Since(waiting)
	e.submitMu.RUnlock()
	return held, <-done
}

// TestDeltaSyncConsolidateSkipsQueuedFolds pins the hand-off between a
// synchronous Consolidate and the background consolidator: a Consolidate
// issued while a fold is in flight, with a staged log large enough to
// re-arm the consolidator, waits for that one fold only — the loop does
// not take the lock again ahead of it — and a background fold that gets
// the lock after a synchronous one has nothing left to do and rebuilds
// nothing.
func TestDeltaSyncConsolidateSkipsQueuedFolds(t *testing.T) {
	e, err := New(Config{
		MaxPartitionSize: 50, BatchSize: 16, Threads: 2,
		DeltaMaxSets: 16, DeltaMaxRatio: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	db := makeTestDB(3000, 5, 1, 163)
	for i := 0; i < 500; i++ {
		e.AddSignature(db.sigs[i], db.keys[i][0])
	}
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	next := holdBackgroundFold(t, e, db, 500)
	// Far more than the threshold stays staged behind the parked fold's
	// cut, so the consolidator would fold again right after it.
	for ; next < len(db.sigs); next++ {
		e.AddSignature(db.sigs[next], db.keys[next][0])
	}
	before := e.Stats().AutoConsolidations
	if _, err := consolidateWhileHeld(t, e, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if folds := e.Stats().AutoConsolidations - before; folds > 1 {
		t.Fatalf("Consolidate waited for %d background folds, want at most the one in flight", folds)
	}
	if n := e.PendingOps(); n != 0 {
		t.Fatalf("%d ops pending after Consolidate", n)
	}

	// A background fold that takes the lock now finds the overlay empty.
	idx, folds := e.idx.Load(), e.Stats().AutoConsolidations
	if err := e.consolidateOnce(true, nil); err != nil {
		t.Fatal(err)
	}
	if e.idx.Load() != idx || e.Stats().AutoConsolidations != folds {
		t.Fatal("background fold with an empty cut rebuilt the index")
	}
	verifyEngine(t, e, db, db.makeQueries(200, 164), false)
}

// TestDeltaLastConsolidateSyncOnly pins what Stats.LastConsolidate
// reports: the synchronous call timed from entry, so the wait for a
// background fold in flight counts, and no background fold overwrites it.
func TestDeltaLastConsolidateSyncOnly(t *testing.T) {
	e, err := New(Config{
		MaxPartitionSize: 50, BatchSize: 16, Threads: 2,
		DeltaMaxSets: 16, DeltaMaxRatio: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	db := makeTestDB(1000, 5, 1, 165)
	for i := 0; i < 300; i++ {
		e.AddSignature(db.sigs[i], db.keys[i][0])
	}
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	next := holdBackgroundFold(t, e, db, 300)
	held, err := consolidateWhileHeld(t, e, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	last := e.Stats().LastConsolidate
	if last < held {
		t.Fatalf("LastConsolidate = %v, but the call waited %v for a background fold", last, held)
	}

	folds := e.Stats().AutoConsolidations
	deadline := time.Now().Add(20 * time.Second)
	for e.Stats().AutoConsolidations == folds {
		if next < len(db.sigs) {
			e.AddSignature(db.sigs[next], db.keys[next][0])
			next++
		}
		if time.Now().After(deadline) {
			t.Fatal("no background fold after Consolidate")
		}
		time.Sleep(time.Millisecond)
	}
	if got := e.Stats().LastConsolidate; got != last {
		t.Fatalf("background fold changed LastConsolidate from %v to %v", last, got)
	}
}

// TestDeltaIncrementalFold drives sustained add/remove churn through
// many background folds and pins the incremental Phase B path: folds of
// a small delta must take the O(delta) splice (IncrementalFolds
// advances), fully-removed sets (dud rows), re-added signatures
// (duplicate rows), and appended delta partitions must all keep exact
// signature-level answers, and a final synchronous Consolidate — the
// full-rebuild path that resets the drift — must not change any answer.
// The device variants additionally pin the Phase C adoption path: the
// swapped-in index serves appended partitions from extent buffers on
// carried-over device state, in both placement modes.
func TestDeltaIncrementalFold(t *testing.T) {
	t.Run("cpu", func(t *testing.T) { testDeltaIncrementalFold(t, Config{}) })
	t.Run("gpu-partitioned", func(t *testing.T) {
		testDeltaIncrementalFold(t, Config{
			Devices: []*gpu.Device{newTestGPU(t, 2), newTestGPU(t, 2)}, StreamsPerDevice: 2,
		})
	})
	t.Run("gpu-replicated", func(t *testing.T) {
		testDeltaIncrementalFold(t, Config{
			Devices: []*gpu.Device{newTestGPU(t, 2), newTestGPU(t, 2)}, StreamsPerDevice: 2,
			Replicate: true,
		})
	})
}

func testDeltaIncrementalFold(t *testing.T, cfg Config) {
	cfg.MaxPartitionSize, cfg.BatchSize, cfg.Threads = 50, 16, 2
	cfg.DeltaMaxSets, cfg.DeltaMaxRatio = 24, 1e-9
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	db := makeTestDB(600, 5, 2, 163)
	db.load(e)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}

	// Signature-level model of what the engine should serve.
	model := make(map[bitvec.Vector][]Key, len(db.sigs))
	for i, sig := range db.sigs {
		model[sig] = append(model[sig], db.keys[i]...)
	}
	expect := func(q bitvec.Vector) []Key {
		var out []Key
		for sig, ks := range model {
			if sig.SubsetOf(q) {
				out = append(out, ks...)
			}
		}
		sortKeysSlice(out)
		return out
	}
	probe := func(step int) {
		t.Helper()
		q := db.sigs[step%len(db.sigs)].Or(randomSets(1, 2, int64(9300+step))[0])
		got, err := e.MatchSignature(q, false)
		if err != nil {
			t.Fatal(err)
		}
		sortKeysSlice(got)
		if want := expect(q); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d: got %v want %v", step, got, want)
		}
	}

	rng := rand.New(rand.NewSource(164))
	var emptied []bitvec.Vector
	next := Key(1_000_000)
	for step := 0; step < 500; step++ {
		switch {
		case rng.Float64() < 0.15:
			// Empty a whole set: its row becomes a dud after the fold.
			sig := db.sigs[rng.Intn(len(db.sigs))]
			for _, k := range model[sig] {
				e.RemoveSignature(sig, k)
			}
			delete(model, sig)
			emptied = append(emptied, sig)
		case len(emptied) > 0 && rng.Float64() < 0.2:
			// Re-add an emptied signature: a fresh row joins a delta
			// partition while the dud row lingers.
			sig := emptied[len(emptied)-1]
			emptied = emptied[:len(emptied)-1]
			e.AddSignature(sig, next)
			model[sig] = append(model[sig], next)
			next++
		case rng.Float64() < 0.3:
			// Remove one association from a random live set.
			sig := db.sigs[rng.Intn(len(db.sigs))]
			if ks := model[sig]; len(ks) > 0 {
				e.RemoveSignature(sig, ks[0])
				if len(ks) == 1 {
					delete(model, sig)
				} else {
					model[sig] = ks[1:]
				}
			}
		default:
			sig := db.sigs[rng.Intn(len(db.sigs))]
			e.AddSignature(sig, next)
			model[sig] = append(model[sig], next)
			next++
		}
		if step%61 == 0 {
			probe(step)
		}
		// Pace the churn so each background fold sees a small cut — the
		// eligibility condition for the splice path (a fold of half the
		// database is rightly a full rebuild).
		if step%10 == 9 {
			for w := 0; w < 400 && e.PendingOps() > 60; w++ {
				time.Sleep(time.Millisecond)
			}
		}
	}

	// Wait for the consolidator to catch up. A residue below the
	// threshold stays staged by design — the overlay serves it.
	deadline := time.Now().Add(20 * time.Second)
	for e.PendingOps() > 24 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	st := e.Stats()
	if st.IncrementalFolds < 1 {
		t.Fatalf("IncrementalFolds = %d, want >= 1 (splice path never exercised)", st.IncrementalFolds)
	}
	for step := 0; step < 50; step++ {
		probe(1000 + step)
	}

	// The full rebuild must agree with the spliced index it replaces.
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 50; step++ {
		probe(2000 + step)
	}
}

// FuzzDeltaMatch is the differential fuzz required by the live-update
// contract: a byte string drives an interleaved add/remove/match
// sequence against two engines — one answering straight through the
// delta overlay, the other consolidated before every match (the oracle).
// Sorted answers must be identical at every probe point.
func FuzzDeltaMatch(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x23, 0x81, 0x12, 0x01})
	f.Add([]byte{0x00, 0x10, 0x90, 0x00, 0x10, 0xff, 0x42})
	f.Add([]byte{0xaa, 0x55, 0xaa, 0x55, 0x07, 0x86})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		live, err := New(Config{MaxPartitionSize: 8, BatchSize: 4, Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer live.Close()
		oracle, err := New(Config{
			MaxPartitionSize: 8, BatchSize: 4, Threads: 1,
			DisableDeltaOverlay: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer oracle.Close()

		// A tiny tag universe (8 tags) and key space (8 keys) so random
		// bytes collide often enough to exercise multiset tombstones.
		tagOf := func(b byte) []string {
			var tags []string
			for i := 0; i < 8; i++ {
				if b&(1<<i) != 0 {
					tags = append(tags, fmt.Sprintf("t%d", i))
				}
			}
			if len(tags) == 0 {
				tags = []string{"t0"}
			}
			return tags
		}
		probe := func(b byte) {
			tags := tagOf(b | b>>1) // widen so subsets exist
			got, err := live.Match(tags)
			if err != nil {
				t.Fatal(err)
			}
			if err := oracle.Consolidate(); err != nil {
				t.Fatal(err)
			}
			want, err := oracle.Match(tags)
			if err != nil {
				t.Fatal(err)
			}
			sortKeysSlice(got)
			sortKeysSlice(want)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("divergence on %v: overlay %v, oracle %v", tags, got, want)
			}
		}

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			key := Key(arg&0x07) + 1
			switch op % 4 {
			case 0, 1: // add (twice as likely as remove)
				live.AddSet(tagOf(arg), key)
				oracle.AddSet(tagOf(arg), key)
			case 2: // remove
				live.RemoveSet(tagOf(arg), key)
				oracle.RemoveSet(tagOf(arg), key)
			case 3: // match
				probe(arg)
			}
		}
		probe(0xff)
		// Final cross-check: consolidating the live engine must not change
		// its answers either.
		if err := live.Consolidate(); err != nil {
			t.Fatal(err)
		}
		probe(0xff)
	})
}

// TestChaosDeltaSwap crosses every moving part shipped so far: a churn
// goroutine streams adds and removes through the overlay while query
// workers run against two faulty devices with hedging enabled, and a
// deliberately low threshold forces repeated background consolidation
// swaps mid-flight. A stable core of the database is never touched by
// churn, so every answer must contain its keys; under -race this also
// proves the three-phase swap publishes the new index safely.
func TestChaosDeltaSwap(t *testing.T) {
	db := makeTestDB(1000, 5, 2, 161)
	devs := []*gpu.Device{newTestGPU(t, 2), newTestGPU(t, 2)}
	e, err := New(Config{
		MaxPartitionSize: 100, BatchSize: 32, Threads: 4,
		Devices: devs, StreamsPerDevice: 2, Replicate: true,
		FailureThreshold:  3,
		QuarantineBackoff: time.Millisecond,
		HedgePolicy:       HedgePolicy{Mode: HedgeFixed, Budget: time.Millisecond},
		DeltaMaxSets:      32, DeltaMaxRatio: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	db.load(e)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	devs[0].SetFaultPlan(&gpu.FaultPlan{
		Seed: 31, CopyFailProb: 0.03, LaunchFailProb: 0.03,
		SlowProb: 0.02, SlowDelay: time.Millisecond,
	})

	stableSig, stableKeys := db.sigs[0], db.keys[0]
	stableQuery := stableSig.Or(randomSets(1, 2, 9200)[0])

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Churn worker: streams adds and removes of disposable associations,
	// keeping the overlay hot and repeatedly tripping the consolidation
	// threshold.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(163))
		next := Key(1_000_000)
		type assoc struct {
			sig bitvec.Vector
			key Key
		}
		var livePool []assoc
		for !stop.Load() {
			if len(livePool) < 50 || rng.Intn(3) > 0 {
				sig := db.sigs[rng.Intn(len(db.sigs))]
				e.AddSignature(sig, next)
				livePool = append(livePool, assoc{sig, next})
				next++
			} else {
				i := rng.Intn(len(livePool))
				e.RemoveSignature(livePool[i].sig, livePool[i].key)
				livePool[i] = livePool[len(livePool)-1]
				livePool = livePool[:len(livePool)-1]
			}
		}
	}()

	// Query workers: the stable keys must be present in every single
	// answer regardless of swap timing, faults, hedges, or churn.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400 && !stop.Load(); i++ {
				got, err := e.MatchSignature(stableQuery, false)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				present := make(map[Key]bool, len(got))
				for _, k := range got {
					present[k] = true
				}
				for _, k := range stableKeys {
					if !present[k] {
						t.Errorf("worker %d query %d: stable key %d missing from %d-key answer",
							w, i, k, len(got))
						return
					}
				}
			}
		}(w)
	}

	// Let the system churn long enough for several background swaps.
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().AutoConsolidations < 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	st := e.Stats()
	if st.AutoConsolidations < 2 {
		t.Fatalf("AutoConsolidations = %d, want >= 2 (swaps never exercised)", st.AutoConsolidations)
	}
	if st.QueriesCompleted != st.QueriesSubmitted {
		t.Fatalf("lost queries: submitted %d completed %d", st.QueriesSubmitted, st.QueriesCompleted)
	}

	// Quiesce and hold the final state to exact parity on the stable
	// portion after one last synchronous consolidation. Faults off
	// first: a still-armed 3% copy fault would occasionally degrade this
	// upload (legal — the engine stays correct CPU-only — but it is the
	// healthy swap we want to assert here).
	devs[0].SetFaultPlan(nil)
	if err := e.Consolidate(); err != nil {
		t.Fatal(err)
	}
	got, err := e.MatchSignature(stableQuery, false)
	if err != nil {
		t.Fatal(err)
	}
	present := make(map[Key]bool, len(got))
	for _, k := range got {
		present[k] = true
	}
	for _, k := range stableKeys {
		if !present[k] {
			t.Fatalf("stable key %d missing after final consolidate", k)
		}
	}
}
