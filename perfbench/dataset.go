package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"tagmatch"
	"tagmatch/internal/bitvec"
	"tagmatch/internal/bloom"
	"tagmatch/internal/workload"
)

// paperUsers is the user count of the paper's full Twitter workload
// (§4.2.1); a dataset at scale s has s × paperUsers users.
const paperUsers = 300_000_000

// dataset is the generated database: every interest the setup loads,
// in user order, plus the generator that builds queries and the fresh
// interests churn adds.
type dataset struct {
	gen   *workload.Generator
	users int
	db    []workload.Interest
}

// generate builds the dataset for a scale and seed. Interests are
// derived per user from (seed, user), so the two halves of the user
// range are generated concurrently and concatenated in user order: the
// same seed always gives the same database.
func generate(scale float64, seed int64) (*dataset, error) {
	users := int(paperUsers * scale)
	if users < 1 {
		return nil, fmt.Errorf("scale %g gives no users", scale)
	}
	gen, err := workload.New(workload.NewConfig(users, seed))
	if err != nil {
		return nil, err
	}
	halves := [][2]int{{0, users / 2}, {users / 2, users}}
	parts := make([][]workload.Interest, len(halves))
	var wg sync.WaitGroup
	for i, h := range halves {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := h[0]; u < h[1]; u++ {
				parts[i] = append(parts[i], gen.InterestsOf(uint32(u))...)
			}
		}()
	}
	wg.Wait()
	return &dataset{gen: gen, users: users, db: slices.Concat(parts...)}, nil
}

// fresh returns n interests of users beyond the loaded range: sets the
// database does not hold yet, for churn's adds.
func (ds *dataset) fresh(n int) []workload.Interest {
	var out []workload.Interest
	for u := ds.users; len(out) < n; u++ {
		out = append(out, ds.gen.InterestsOf(uint32(u))...)
	}
	return out[:n]
}

// queries builds n queries per §4.2.2: a database interest drawn
// uniformly plus 2–4 extra tags in a random language, so every query
// matches at least the interest it was built on.
func (ds *dataset) queries(rng *rand.Rand, n int) [][]string {
	out := make([][]string, n)
	for i := range out {
		out[i] = ds.gen.Query(rng, ds.db[rng.Intn(len(ds.db))].Tags, -1)
	}
	return out
}

// model is the brute-force reference the exactness gate checks the
// engine against: every (signature, key) row the engine may hold, each
// alive or not, so churn's adds and removes can be replayed. It answers
// MatchUnique with a subset scan over the same Bloom signatures the
// engine indexes.
type model struct {
	sigs  []bitvec.Vector
	keys  []tagmatch.Key
	alive []bool
}

// newModel holds rows for the loaded interests (alive) followed by rows
// for later adds (dead until added).
func newModel(db, adds []workload.Interest) *model {
	m := &model{}
	for i, in := range slices.Concat(db, adds) {
		m.sigs = append(m.sigs, bloom.Signature(in.Tags))
		m.keys = append(m.keys, tagmatch.Key(in.User))
		m.alive = append(m.alive, i < len(db))
	}
	return m
}

// reset revives the loaded rows and clears the added ones, the state
// every session starts from.
func (m *model) reset(loaded int) {
	for i := range m.alive {
		m.alive[i] = i < loaded
	}
}

// matchUnique returns the sorted distinct keys of every alive row whose
// signature is a subset of the query's.
func (m *model) matchUnique(tags []string) []tagmatch.Key {
	q := bloom.Signature(tags)
	var out []tagmatch.Key
	for i, s := range m.sigs {
		if m.alive[i] && s.SubsetOf(q) {
			out = append(out, m.keys[i])
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// update is one churn operation on a model row.
type update struct {
	row int
	add bool
}

// answer is one engine answer kept for the exactness gate: the query,
// the keys the engine returned, and how many updates had been applied
// when it was asked.
type answer struct {
	tags []string
	got  []tagmatch.Key
	at   int
}

// sameKeys reports whether an engine answer equals the reference once
// sorted: same keys, same multiplicity.
func sameKeys(got, want []tagmatch.Key) bool {
	return slices.Equal(slices.Sorted(slices.Values(got)), want)
}

// verify replays ops into the model in order and checks every answer
// against the model state it was asked under. answers must be sorted by
// at. It returns the number of answers that differ.
func verify(m *model, ops []update, answers []answer, log func(string, ...any)) int {
	bad, applied := 0, 0
	for _, a := range answers {
		for ; applied < a.at; applied++ {
			m.alive[ops[applied].row] = ops[applied].add
		}
		want := m.matchUnique(a.tags)
		if !sameKeys(a.got, want) {
			if bad < 5 {
				log("exactness: query %q after %d updates: engine %d keys, reference %d keys",
					a.tags, a.at, len(a.got), len(want))
			}
			bad++
		}
	}
	return bad
}
