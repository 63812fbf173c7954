// Command perfbench is the canonical benchmark of the TagMatch engine as
// it ships. It drives the engine from outside, through the public API
// only, on the paper's Twitter-like workload (§4.2) and reports the
// end-to-end metrics BENCHMARK.json lists; a traced run reports the
// per-layer metrics instead. Every run checks a sample of the engine's
// answers against a brute-force subset scan and exits non-zero on any
// mismatch. See README.md for the workloads and metric definitions.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload stream|rpc|churn --seed N --seconds S --trace 0|1
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"time"

	"tagmatch"
	"tagmatch/internal/obs"
	"tagmatch/internal/workload"
)

const (
	// warmup is how long the load runs before the measured interval,
	// so pools, query windows and stream slots are filled before timing.
	warmup = time.Second
	// churnCooldown bounds how long churn's query stream may run past
	// the interval while its last measured queries finish.
	churnCooldown = 10 * time.Second
	// keepEvery samples the answers of the closed loops; at most
	// maxChecked of them, spread evenly, are checked against the
	// reference.
	keepEvery  = 16
	maxChecked = 256
	// churnProbes is how many probe queries the churn update stream
	// asks, spread evenly over the updates it offers, and finalChecks
	// how many queries are checked against the final state.
	churnProbes = 32
	finalChecks = 64
	// distinctQueries is how many different queries the closed loops
	// cycle through, and maxRate bounds the queries per second a window
	// has room to record.
	distinctQueries = 1 << 16
	maxRate         = 100_000
	// traceEvery is Config.TraceEvery in the traced run.
	traceEvery = 64
)

// errMismatch marks a run whose answers differ from the reference.
var errMismatch = errors.New("exactness gate failed: engine answers differ from the brute-force reference")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spec     string
	out      string
	corrupt  bool
}

func parseOptions(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: stream, rpc or churn")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated dataset, queries and updates")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run, which reports the per-layer metrics")
	fs.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark record holding the workloads' load shapes")
	fs.StringVar(&o.out, "out", ".bench_build/traces", "directory the traced run writes its spans to")
	fs.BoolVar(&o.corrupt, "inject-mismatch", false, "corrupt one checked answer, to show the gate fails (self-test only)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1")
	}
	o.trace = *trace != 0
	return o, nil
}

// bench is one run's inputs, all generated from the seed before any
// engine exists.
type bench struct {
	opts   options
	shape  shape
	spec   *spec
	origin time.Time
	out    io.Writer

	ds    *dataset
	ref   *model
	qs    [][]string // measured queries
	warm  [][]string // warm-up queries
	churn churnLoad
}

func run(args []string, stdout io.Writer) error {
	opts, err := parseOptions(args)
	if err != nil {
		return err
	}
	sp, sh, err := loadSpec(opts.spec, opts.workload)
	if err != nil {
		return err
	}
	b := &bench{opts: opts, shape: sh, spec: sp, origin: time.Now(), out: stdout}
	if err := b.prepare(); err != nil {
		return err
	}
	if opts.trace {
		return b.traced()
	}
	return b.untraced()
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.out, format+"\n", args...)
}

// prepare generates the dataset and every input the workload sends, so
// the engine later receives only ready tag lists.
func (b *bench) prepare() error {
	t0 := time.Now()
	ds, err := generate(b.shape.Scale, b.opts.seed)
	if err != nil {
		return err
	}
	b.ds = ds
	rng := rand.New(rand.NewSource(b.opts.seed))
	secs := float64(b.opts.seconds)
	var adds []workload.Interest
	switch b.opts.workload {
	case "stream", "rpc":
		b.qs = ds.queries(rng, distinctQueries)
	case "churn":
		b.qs = ds.queries(rng, int(b.shape.QPS*(secs+warmup.Seconds()))+1)
		adds = b.prepareChurn(rng)
	}
	b.ref = newModel(ds.db, adds)
	b.logf("dataset: scale %g seed %d: %d users, %d interests; %d queries prepared (%.1fs, not part of setup)",
		b.shape.Scale, b.opts.seed, ds.users, len(ds.db), len(b.qs), time.Since(t0).Seconds())
	return nil
}

// prepareChurn builds the update stream: alternately an add of a fresh
// interest and a remove of a distinct loaded one, enough for the
// largest prefill plus what the offered rate sends in the window, and a
// probe query on the updated interest every probeEvery updates. It
// returns the fresh interests.
func (b *bench) prepareChurn(rng *rand.Rand) []workload.Interest {
	n := maxPrefill(len(b.ds.db)) + int(b.shape.UPS*float64(b.opts.seconds))
	n = min(n, 2*len(b.ds.db))
	adds := b.ds.fresh(n/2 + 1)
	removed := rng.Perm(len(b.ds.db))
	perWindow := int(b.shape.UPS * float64(b.opts.seconds))
	cl := churnLoad{rows: slices.Concat(b.ds.db, adds), probeEvery: max(1, perWindow/churnProbes)}
	for j := range n {
		op := update{row: removed[j/2]}
		if j%2 == 0 {
			op = update{row: len(b.ds.db) + j/2, add: true}
		}
		cl.ops = append(cl.ops, op)
		if (j+1)%cl.probeEvery == 0 {
			cl.probes = append(cl.probes, b.ds.gen.Query(rng, cl.rows[op.row].Tags, -1))
		}
	}
	b.churn = cl
	return adds
}

// The engine's default fold threshold (tagmatch.Config.DeltaMaxSets and
// DeltaMaxRatio): a background fold starts once the overlay holds
// max(4096, 0.25 × sets) live updates.
const (
	foldMinSets = 4096
	foldRatio   = 0.25
	// foldLead is how far into churn's measured interval the overlay
	// first crosses the fold threshold.
	foldLead = 500 * time.Millisecond
)

func maxPrefill(interests int) int { return max(foldMinSets, int(foldRatio*float64(interests))) }

// prefill is how many updates churn applies before its load starts, so
// the overlay crosses the default fold threshold foldLead into the
// measured interval and every run sees the same fold schedule.
func (b *bench) prefill(sets int) int {
	thr := max(foldMinSets, int(foldRatio*float64(sets)))
	return max(0, thr-int(b.shape.UPS*foldLead.Seconds()))
}

// session is one fresh engine, loaded, warmed and measured.
type session struct {
	setup         setup
	w             *window
	before, after snapshot
	answers       []answer
	deviceMB      float64
	folds         int64
	prefill       int // churn updates applied before the window
	engineTraces  []obs.TraceRecord
}

// measure loads a fresh engine with cfg, warms it, runs the workload
// for a measured interval of d and collects the answers the gate
// checks. The engine is closed on return. The loaded interests stay
// alive in every session, so the harness's share of the heap, and with
// it the garbage collector's pacing, is the same in all of them.
func (b *bench) measure(cfg tagmatch.Config, traced, last bool, d time.Duration) (*session, error) {
	st, err := setUp(cfg, b.ds.db, b.origin)
	if err != nil {
		return nil, err
	}
	eng := st.eng
	defer eng.Close()
	st.eng = nil // the session outlives the engine
	s := &session{setup: st}
	for _, n := range eng.Stats().DeviceBytes {
		s.deviceMB += float64(n) / 1e6
	}
	if last {
		est := eng.Stats()
		b.logf("engine: %d unique sets, %d partitions, %.1f MB on devices, %.1f MB engine heap",
			est.UniqueSets, est.Partitions, s.deviceMB, st.heapMB)
	}

	room := int(maxRate * (warmup + d + time.Second).Seconds())
	if b.opts.workload == "churn" {
		room = int(b.shape.QPS * (warmup + d + churnCooldown).Seconds())
	}
	w := newWindow(b.origin, traced, b.qs, room, len(b.churn.ops))
	w.onOpen = func() { s.before = takeSnapshot(eng, b.origin) }
	w.onClose = func() { s.after = takeSnapshot(eng, b.origin) }
	s.w = w
	switch b.opts.workload {
	case "stream":
		w.stream(eng, b.shape.Window, warmup, d)
	case "rpc":
		w.rpc(eng, b.shape.Clients, warmup, d)
	case "churn":
		cl := b.churn
		cl.prefill = b.prefill(eng.Stats().UniqueSets)
		for _, op := range cl.ops[:cl.prefill] {
			cl.apply(eng, op)
		}
		w.churn(eng, b.shape.QPS, &cl, b.shape.UPS, warmup, d)
		s.prefill = cl.prefill
	}
	w.onOpen, w.onClose = nil, nil // they hold the engine, which closes
	if w.queries == room {
		return nil, fmt.Errorf("%s used up its room for %d queries", b.opts.workload, room)
	}
	s.folds = s.after.st.AutoConsolidations - s.before.st.AutoConsolidations
	s.answers = b.collect(eng, s)
	if traced {
		s.engineTraces = eng.Obs().Tracer.Recent()
	}
	return s, nil
}

// collect returns the answers the exactness gate checks, in update
// order: for the closed loops an even sample of the kept answers; for
// churn the probes, then finalChecks queries asked once every update
// has been applied.
func (b *bench) collect(eng *tagmatch.Engine, s *session) []answer {
	w := s.w
	if b.opts.workload != "churn" {
		kept := w.keptAnswers()
		var out []answer
		step := max(1, len(kept)/maxChecked)
		for i := 0; i < len(kept); i += step {
			out = append(out, kept[i])
		}
		return out
	}
	out := slices.Clone(w.answers)
	for _, tags := range b.qs[:min(finalChecks, len(b.qs))] {
		keys, err := eng.MatchUnique(tags)
		if err != nil {
			w.failed.Add(1)
			continue
		}
		out = append(out, answer{tags: tags, got: keys, at: s.prefill + w.updates})
	}
	return out
}

// check runs the exactness gate over a session's answers.
func (b *bench) check(s *session) error {
	answers := s.answers
	if b.opts.corrupt && len(answers) > 0 {
		a := &answers[0]
		a.got = append(slices.Clone(a.got), tagmatch.Key(1<<31))
	}
	if len(answers) == 0 {
		return fmt.Errorf("no answers to check")
	}
	b.ref.reset(len(b.ds.db))
	bad := verify(b.ref, b.churn.ops, answers, b.logf)
	b.logf("exactness: %d of %d sampled answers match the brute-force reference", len(answers)-bad, len(answers))
	if bad > 0 {
		return errMismatch
	}
	return nil
}

// untraced is the measured run, reporting the end-to-end metrics. It
// loads shape.Setups fresh engines. The closed loops measure each of
// them for an equal share of the run's seconds, so a run averages over
// engines as well as over time; churn measures only the last, whose
// interval must be long enough to hold several background folds.
func (b *bench) untraced() error {
	var setupS []float64
	var sessions []*session
	measured := b.shape.Setups
	if b.opts.workload == "churn" {
		measured = 1
	}
	d := time.Duration(b.opts.seconds) * time.Second / time.Duration(measured)
	for i := range b.shape.Setups {
		last := i == b.shape.Setups-1
		if i < b.shape.Setups-measured {
			st, err := setUp(engineConfig(0), b.ds.db, b.origin)
			if err != nil {
				return err
			}
			st.eng.Close()
			setupS = append(setupS, st.seconds())
		} else {
			s, err := b.measure(engineConfig(0), false, last, d)
			if err != nil {
				return err
			}
			setupS = append(setupS, s.setup.seconds())
			sessions = append(sessions, s)
		}
		runtime.GC()
	}
	var gateErr error
	var attempted, failed int64
	for _, s := range sessions {
		if err := b.check(s); err != nil {
			gateErr = err
		}
		attempted += b.attempted(s)
		failed += s.w.failed.Load()
	}
	m := b.endToEnd(sessions, setupS)
	if err := report(b.out, b.spec.EndToEnd, m, gateErr == nil, attempted, failed); err != nil {
		return err
	}
	return gateErr
}

// attempted counts the queries and updates a session sent in its
// measured interval.
func (b *bench) attempted(s *session) int64 {
	return int64(len(s.w.latencies())) + s.w.failed.Load() + int64(s.w.updates)
}

// endToEnd computes the end-to-end metrics over a run's measured
// sessions: latency percentiles over all their queries, throughput as
// their completions over their summed intervals, and memory after the
// last setup.
func (b *bench) endToEnd(sessions []*session, setupS []float64) metrics {
	var lat []float64
	var done, secs float64
	for _, s := range sessions {
		l := s.w.latencies()
		lat = append(lat, l...)
		secs += float64(s.w.end-s.w.from) / 1e9
		done += s.w.qps() * float64(s.w.end-s.w.from) / 1e9
		b.logf("session: %d queries completed, %d failed, %d updates, %d background folds",
			len(l), s.w.failed.Load(), s.w.updates, s.folds)
	}
	if len(lat) >= 10000 {
		b.logf("p999_ms %.3f ms (n=%d; not a bounded metric)", quantile(lat, 0.999), len(lat))
	}
	last := sessions[len(sessions)-1]
	return metrics{
		"setup_s":   {median(setupS), len(setupS)},
		"qps":       {done / secs, len(lat)},
		"p50_ms":    {quantile(lat, 0.5), len(lat)},
		"p99_ms":    {quantile(lat, 0.99), len(lat)},
		"device_mb": {last.deviceMB, 1},
		"host_mb":   {last.setup.heapMB, 1},
	}
}
