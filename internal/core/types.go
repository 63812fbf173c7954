// Package core implements the TagMatch subset-matching engine of
// Rogora et al., "High-Throughput Subset Matching on Commodity GPU-Based
// Systems" (EuroSys 2017).
//
// The engine indexes a database of tag sets, represented as 192-bit
// Bloom-filter signatures, into balanced partitions (Algorithm 1 of the
// paper). Queries flow through a four-stage pipeline: pre-process on CPUs
// (Algorithm 2), subset match on (simulated) GPUs (Algorithms 3 and 4),
// key lookup/reduce on CPUs, and merge on CPUs. Batching, per-partition
// flush timeouts, GPU streams, and double-buffered result transfers follow
// §3.3 and §3.4 of the paper.
package core

import (
	"fmt"
	"log/slog"
	"time"

	"tagmatch/internal/bitvec"
	"tagmatch/internal/gpu"
)

// Key is the application-supplied value associated with a tag set; in the
// Twitter-like workload a Key is a user id.
type Key uint32

// SetID identifies a unique tag set in the consolidated tagset table.
type SetID uint32

// Config controls engine construction. The zero value selects CPU-only
// operation with paper defaults scaled for small databases; use
// DefaultConfig for documented defaults.
type Config struct {
	// MaxPartitionSize is MAX_P of Algorithm 1: the maximum number of tag
	// sets per partition. The paper's sweet spot was 200K sets for a 212M
	// set database (Fig 7); scale proportionally.
	MaxPartitionSize int

	// BatchSize is the number of queries per GPU batch. Query ids inside
	// a batch are 8-bit in the packed result layout (§3.3.1), so the
	// batch size may not exceed 256: a larger batch would silently alias
	// query indices and corrupt results. New rejects larger values with
	// ErrBatchSizeTooLarge.
	BatchSize int

	// BatchTimeout flushes partially filled batches after this delay
	// (§3, "configurable timeout period"). Zero disables the timeout:
	// batches wait until full or until Flush/Drain.
	BatchTimeout time.Duration

	// Threads is the number of CPU worker threads shared by the
	// pre-process and key-lookup/reduce/merge stages. Defaults to 4.
	Threads int

	// Devices are the GPUs to use. Empty means CPU-only TagMatch: the
	// same pipeline with the subset-match stage executed synchronously on
	// the dispatching CPU thread (the "CPU-only, TagMatch" row of
	// Table 1).
	Devices []*gpu.Device

	// StreamsPerDevice is the number of streams opened per GPU; the
	// paper's platform supported 10. Defaults to min(10, device max).
	StreamsPerDevice int

	// StreamDepth is the number of pipelined dispatch slots per stream —
	// the generalized even/odd double buffering of §3.3.2. At depth d,
	// up to d batches ride one stream concurrently: batch n+1's header
	// reset + H2D + kernel are enqueued while batch n's results are
	// still transferring, hiding the copy tax behind kernel time.
	// Defaults to 2 (even/odd); 1 reproduces the one-batch-per-stream
	// behavior as the ablation baseline. Depths beyond 2 rarely pay:
	// the FIFO already holds the next batch's work the moment the
	// current kernel finishes, so extra slots only add buffer memory.
	StreamDepth int

	// QueryWindow is the per-device query-signature ring size, in
	// signatures. Dispatch maps each batch's signatures onto the ring —
	// a query routed to k partitions uploads its 24-byte signature once
	// and the k batches carry 4-byte indices — collapsing the
	// fan-out-multiplied H2D query traffic. Defaults to 16×BatchSize;
	// values below BatchSize are raised to BatchSize (a single batch of
	// distinct signatures must fit).
	QueryWindow int

	// DisableQueryWindow turns the query window off: every batch
	// uploads its signatures densely, as before (ablation).
	DisableQueryWindow bool

	// BlockDim is the GPU thread-block size for the subset-match kernel.
	// Defaults to 256.
	BlockDim int

	// MaxPairsPerBatch sizes the kernel result buffer in (query,set)
	// pairs. A batch producing more matches than this falls back to CPU
	// matching for correctness (counted in Stats.ResultOverflows).
	// Defaults to 16×BatchSize.
	MaxPairsPerBatch int

	// Replicate replicates the transposed index on every device so that
	// any stream can serve any partition (maximal inter-GPU
	// parallelism). When false, partitions are spread across devices
	// round-robin and each batch must use a stream of the owning device.
	// Defaults true (set by DefaultConfig).
	Replicate bool

	// DisablePrefilter turns off the thread-block common-prefix
	// pre-filtering of Algorithm 4 (ablation).
	DisablePrefilter bool

	// SplitOutputLayout stores query ids and set ids in two separate
	// device arrays instead of the packed 4+4 layout of §3.3.1,
	// requiring two result copies per batch (ablation).
	SplitOutputLayout bool

	// SizeThenCopy replaces the double-buffered single result transfer
	// with the naive scheme the paper rejects: first copy the 4-byte
	// result size, then issue a second exact-size copy (ablation).
	SizeThenCopy bool

	// ExactVerify keeps the original tag sets alongside the Bloom
	// signatures and re-checks every match exactly during key lookup,
	// eliminating Bloom false positives entirely (§3: "the system or the
	// application can perform an additional exact subset check").
	// Sets staged via AddSignature and queries submitted without tags
	// cannot be verified and pass through unchecked.
	ExactVerify bool

	// FirstFitPartitioning replaces the balanced partitioning of
	// Algorithm 1 with naive first-fit chunking: sets sorted
	// lexicographically and cut into MAX_P-sized runs, each run's mask
	// being the intersection of its members (ablation). Masks produced
	// this way are often empty or tiny, so pre-processing prunes far
	// fewer partitions.
	FirstFitPartitioning bool

	// TraceEvery samples one query in N for full pipeline tracing: the
	// timestamped path through every stage and its batch assignments,
	// retrievable via Obs().Tracer. Zero disables tracing (default).
	TraceEvery int

	// TraceKeep is the number of completed traces retained (default 128).
	TraceKeep int

	// DisableObservability turns off the internal/obs instrumentation —
	// stage histograms, per-partition counters, traces — leaving only
	// the cumulative Stats counters. The obs-overhead benchmark compares
	// against this configuration; production deployments should leave
	// observability on (the overhead is a few percent at most).
	DisableObservability bool

	// MaxInFlight bounds the number of submitted-but-incomplete queries
	// the engine admits. At the bound, Submit-family calls return
	// ErrOverloaded immediately instead of queueing without limit (the
	// SubmitCtx variants block for capacity). Zero disables the gate
	// (the default): submission applies only the pipeline's natural
	// channel backpressure.
	MaxInFlight int

	// FailureThreshold is the number of consecutive failed batch
	// attempts on a device before the circuit breaker quarantines it:
	// the device's streams are skipped (batches re-route to surviving
	// devices in Replicate mode, to the CPU otherwise) until a recovery
	// probe succeeds. Defaults to 3.
	FailureThreshold int

	// QuarantineBackoff is the delay before a quarantined device
	// receives its first recovery probe; each failed probe doubles the
	// delay, up to 64x. Defaults to 250ms.
	QuarantineBackoff time.Duration

	// ScalarRouting replaces the bit-sliced (column-transposed)
	// partition-table lookup of the pre-process stage with the retained
	// scalar Algorithm 2 scan — one three-word subset test per candidate
	// mask (ablation; the preprocess benchmark measures the two paths
	// against each other). Results are identical either way.
	ScalarRouting bool

	// DisablePooling turns off the hot-path buffer recycling (query
	// structs, batches, result carriers, reduce scratch), allocating
	// fresh objects for every query and batch instead. Used by the
	// hotpath experiment to quantify the pooling win; production
	// deployments should leave pooling on (the default).
	DisablePooling bool

	// DeltaMaxSets is the live-op count (overlay adds + tombstones) at
	// which the background consolidator folds the delta overlay into the
	// main index. Defaults to 4096.
	DeltaMaxSets int

	// DeltaMaxRatio raises the auto-consolidation threshold to this
	// fraction of the main index's set count when that exceeds
	// DeltaMaxSets, keeping rebuild cost amortized-geometric as the
	// database grows. Defaults to 0.25.
	DeltaMaxRatio float64

	// DisableDeltaOverlay restores the legacy update semantics: staged
	// ops stay invisible until an explicit Consolidate, no overlay is
	// maintained on the query path, and no background consolidator runs
	// (the stop-the-world ablation baseline of the churn experiment).
	DisableDeltaOverlay bool

	// HedgePolicy enables hedged re-dispatch of straggling batches: a
	// dispatched batch that outlives its straggler budget is re-issued to
	// another healthy device (or the host) and the two attempts race,
	// exactly-once completion discarding the loser's results. The zero
	// value disables hedging.
	HedgePolicy HedgePolicy

	// Logger receives structured records of operationally significant
	// events: device quarantine entry/exit, device death, CPU fallbacks.
	// Nil disables logging (the library default — counters and traces
	// still record everything); tagmatch-server wires slog.Default().
	Logger *slog.Logger
}

// HedgeMode selects how HedgePolicy derives a batch's straggler budget.
type HedgeMode string

const (
	// HedgeOff disables hedged re-dispatch (the default).
	HedgeOff HedgeMode = ""
	// HedgeFixed hedges any batch still unsettled Budget after dispatch.
	HedgeFixed HedgeMode = "fixed"
	// HedgePercentile hedges a batch still unsettled after Multiplier
	// times the dispatching device's tracked Percentile batch service
	// time — an adaptive budget that follows the device's own tail, so
	// a uniformly slow device is not hedged while a bimodal one is.
	HedgePercentile HedgeMode = "percentile"
)

// HedgePolicy configures hedged re-dispatch of straggling batches
// (Config.HedgePolicy). The tail-tolerance idea is the classic hedged
// request: rather than waiting out a straggler, re-issue the work
// elsewhere once the response is slower than the expected tail, and let
// the two attempts race.
type HedgePolicy struct {
	// Mode selects the budget derivation; HedgeOff (the zero value)
	// disables hedging. New rejects unknown modes.
	Mode HedgeMode

	// Budget is the fixed straggler budget of HedgeFixed mode.
	// Defaults to 5ms.
	Budget time.Duration

	// Percentile is the per-device batch service-time quantile tracked
	// for HedgePercentile mode. Defaults to 0.99.
	Percentile float64

	// Multiplier scales the tracked percentile into the straggler
	// budget. Defaults to 3.
	Multiplier float64

	// MinBudget floors the adaptive budget, and serves as the budget
	// until a device has accumulated enough batches to trust its
	// tracked distribution. Defaults to 500µs.
	MinBudget time.Duration
}

// DefaultConfig returns the paper-faithful defaults for a database of
// approximately dbSize sets.
func DefaultConfig(dbSize int, devices ...*gpu.Device) Config {
	maxP := dbSize / 1000 // paper ratio: 200K partitions cap for 212M sets
	if maxP < 64 {
		maxP = 64
	}
	return Config{
		MaxPartitionSize: maxP,
		BatchSize:        256,
		BatchTimeout:     200 * time.Millisecond,
		Threads:          4,
		Devices:          devices,
		StreamsPerDevice: 10,
		BlockDim:         256,
		Replicate:        true,
	}
}

// validate rejects configurations that would corrupt results rather
// than merely perform badly. It runs before applyDefaults, on the
// caller's values.
func (c *Config) validate() error {
	if c.BatchSize > maxBatchSize {
		return ErrBatchSizeTooLarge
	}
	switch c.HedgePolicy.Mode {
	case HedgeOff, HedgeFixed, HedgePercentile:
	default:
		return fmt.Errorf("%w: %q", ErrUnknownHedgeMode, c.HedgePolicy.Mode)
	}
	return nil
}

func (c *Config) applyDefaults() {
	if c.MaxPartitionSize <= 0 {
		c.MaxPartitionSize = 1024
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if c.StreamsPerDevice <= 0 {
		c.StreamsPerDevice = 10
	}
	if c.StreamDepth <= 0 {
		c.StreamDepth = 2
	}
	if c.QueryWindow <= 0 {
		c.QueryWindow = 16 * c.BatchSize
	}
	if c.QueryWindow < c.BatchSize {
		c.QueryWindow = c.BatchSize
	}
	if c.BlockDim <= 0 {
		c.BlockDim = 256
	}
	if c.MaxPairsPerBatch <= 0 {
		c.MaxPairsPerBatch = 16 * c.BatchSize
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.QuarantineBackoff <= 0 {
		c.QuarantineBackoff = 250 * time.Millisecond
	}
	if c.HedgePolicy.Budget <= 0 {
		c.HedgePolicy.Budget = 5 * time.Millisecond
	}
	if c.HedgePolicy.Percentile <= 0 || c.HedgePolicy.Percentile >= 1 {
		c.HedgePolicy.Percentile = 0.99
	}
	if c.HedgePolicy.Multiplier <= 0 {
		c.HedgePolicy.Multiplier = 3
	}
	if c.HedgePolicy.MinBudget <= 0 {
		c.HedgePolicy.MinBudget = 500 * time.Microsecond
	}
	if c.DeltaMaxSets <= 0 {
		c.DeltaMaxSets = 4096
	}
	if c.DeltaMaxRatio <= 0 {
		c.DeltaMaxRatio = 0.25
	}
}

// Stats is a snapshot of engine activity. The JSON field names are part
// of the GET /stats contract of internal/httpserver.
type Stats struct {
	// Database shape after the last Consolidate.
	UniqueSets int `json:"unique_sets"`
	Partitions int `json:"partitions"`
	Keys       int `json:"keys"`

	// Pipeline counters.
	QueriesSubmitted   int64 `json:"queries_submitted"`
	QueriesCompleted   int64 `json:"queries_completed"`
	BatchesDispatched  int64 `json:"batches_dispatched"`
	BatchesTimedOut    int64 `json:"batches_timed_out"`
	PairsProduced      int64 `json:"pairs_produced"`
	KeysDelivered      int64 `json:"keys_delivered"`
	ResultOverflows    int64 `json:"result_overflows"`
	PartitionsSearched int64 `json:"partitions_searched"`

	// Routing counters (mirrors of obs.RoutingCounters): queries per
	// lookup flavor and the lock amortization of the worker-local batch
	// accumulators (RouteAppends / RouteMergeLocks ≥ 1; per-append
	// locking would pin it at 1).
	RoutedSliced    int64 `json:"routed_sliced"`
	RoutedScalar    int64 `json:"routed_scalar"`
	RouteMergeLocks int64 `json:"route_merge_locks"`
	RouteAppends    int64 `json:"route_appends"`

	// Subset-match kernel counters (mirrors of obs.KernelCounters):
	// batches executed by the bit-sliced kernel, group-gate
	// effectiveness (KernelGatePruned / KernelGateChecks is the gate hit
	// rate), and the column words touched by the bit-sliced walk.
	KernelSliced        int64 `json:"kernel_sliced"`
	KernelGateChecks    int64 `json:"kernel_gate_checks"`
	KernelGatePruned    int64 `json:"kernel_gate_pruned"`
	KernelGroupScans    int64 `json:"kernel_group_scans"`
	KernelColumnsWalked int64 `json:"kernel_columns_walked"`

	// Pipelined-dispatch counters (mirrors of obs.StreamCounters):
	// query-window effectiveness and stream-slot overlap.
	// WindowHits/WindowMisses count batch query slots resolved against
	// the device ring; H2DQueryBytes/QuerySlots give the mean H2D bytes
	// per dispatched query slot the window is meant to shrink;
	// PipelinedDispatches counts batches that overlapped another batch
	// already in flight on the same stream.
	WindowHits          int64 `json:"window_hits"`
	WindowMisses        int64 `json:"window_misses"`
	WindowEvictions     int64 `json:"window_evictions"`
	WindowFallbacks     int64 `json:"window_fallbacks"`
	H2DQueryBytes       int64 `json:"h2d_query_bytes"`
	QuerySlots          int64 `json:"query_slots"`
	PipelinedDispatches int64 `json:"pipelined_dispatches"`

	// Fault-tolerance counters (mirrors of obs.FaultCounters): failed
	// GPU batch attempts, re-dispatches, host re-runs, circuit-breaker
	// transitions, and overload rejections.
	GPUFaults         int64 `json:"gpu_faults"`
	BatchRetries      int64 `json:"batch_retries"`
	CPUFallbacks      int64 `json:"cpu_fallbacks"`
	DeviceQuarantines int64 `json:"device_quarantines"`
	RecoveryProbes    int64 `json:"recovery_probes"`
	DeviceRecoveries  int64 `json:"device_recoveries"`
	QueriesShed       int64 `json:"queries_shed"`

	// Tail-tolerance counters: queries completed early because their
	// deadline passed before launch, batches cancelled outright because
	// every member had expired, and straggler hedges by outcome
	// (fired: launched; won: hedge result used; lost: primary won the
	// race; cancelled: budget elapsed after the batch settled).
	DeadlineExpired  int64 `json:"deadline_expired"`
	BatchesCancelled int64 `json:"batches_cancelled"`
	HedgesFired      int64 `json:"hedges_fired"`
	HedgesWon        int64 `json:"hedges_won"`
	HedgesLost       int64 `json:"hedges_lost"`
	HedgesCancelled  int64 `json:"hedges_cancelled"`

	// Live-update counters (mirrors of obs.DeltaCounters plus the
	// overlay's live sizes): DeltaAdds/DeltaTombstones are the overlay
	// entries currently serving queries ahead of consolidation;
	// DeltaMatches/DeltaKeys count its match contribution;
	// TombstoneSuppressed the main-index entries hidden by pending
	// removes; AutoConsolidations the background folds; LastSwapPause
	// the traffic pause of the most recent background swap (drain +
	// index swap + device upload — compare LastConsolidate, the full
	// stop-the-world rebuild time).
	DeltaAdds           int64         `json:"delta_adds"`
	DeltaTombstones     int64         `json:"delta_tombstones"`
	DeltaAbsorbedOps    int64         `json:"delta_absorbed_ops"`
	DeltaMatches        int64         `json:"delta_matches"`
	DeltaKeys           int64         `json:"delta_keys"`
	TombstoneSuppressed int64         `json:"tombstone_suppressions"`
	AutoConsolidations  int64         `json:"auto_consolidations"`
	IncrementalFolds    int64         `json:"incremental_folds"`
	LastSwapPause       time.Duration `json:"last_swap_pause_ns"`

	// Memory accounting (Fig 9): host side and per-device.
	HostBytes   int64   `json:"host_bytes"`
	DeviceBytes []int64 `json:"device_bytes,omitempty"`

	// LastConsolidate is the duration of the most recent Consolidate
	// call (Fig 8), or of the fold that ends a LoadSnapshot, timed from
	// entry: any wait for a background fold in flight counts. Background
	// folds do not touch it; they report LastSwapPause.
	LastConsolidate time.Duration `json:"last_consolidate_ns"`

	// Cumulative busy time per pipeline stage, summed across workers:
	// pre-process (Algorithm 2 + batch fill), subset match (dispatch to
	// result arrival), and key lookup/reduce. Useful for locating the
	// pipeline bottleneck on a given host and workload.
	PreprocessTime  time.Duration `json:"preprocess_time_ns"`
	SubsetMatchTime time.Duration `json:"subset_match_time_ns"`
	ReduceTime      time.Duration `json:"reduce_time_ns"`
}

// MatchResult carries the outcome of one query through the pipeline.
type MatchResult struct {
	// Keys holds the matched keys: a multiset for Match, deduplicated
	// for MatchUnique. Nil when Err is set.
	Keys []Key
	// Latency is the end-to-end time from submission to merge (or to
	// the early completion when Err is set).
	Latency time.Duration
	// Err is non-nil when the query terminated without matching: it
	// matches ErrDeadlineExceeded (joined with the causing context
	// error, if any) when the query's deadline passed — or its context
	// was cancelled — before its batches launched.
	Err error
}

// partition is one entry of the partition table: the defining mask and the
// half-open range [off, off+n) of the consolidated tagset table.
type partition struct {
	mask bitvec.Vector
	off  uint32 // offset in the global flat tagset table
	n    uint32
	dev  int // owning device index when not replicating

	// Offsets of the partition's ⌈n/64⌉ bit-sliced groups in the flat
	// transposed index (index.groups / the replicated device buffers);
	// local set i lives in lane i%64 of group grpOff+i/64. devGrpOff is
	// the offset in the owning device's shard in partitioned mode.
	grpOff    uint32
	devGrpOff uint32

	// ext is the partition's device extent: 0 for the base shard
	// uploaded by the last full build, e>0 for the e-th extent buffer
	// appended by an incremental fold (index.devGrpExts[dev][e-1], see
	// adoptDevices). When ext > 0, devGrpOff indexes into the extent
	// buffer — in replicate mode too, where base partitions use grpOff
	// instead.
	ext uint32

	batch *openBatch // current filling batch; guarded by the partition lock

	// dirty mirrors the partition's membership in the index's
	// dirty-partition list (guarded by the partition lock): true while
	// the partition has — or recently had — an open batch a flush pass
	// must visit. Keeps flushAll and the flusher tick from sweeping all
	// P partitions when only a handful have traffic.
	dirty bool
}

// nGroups returns the number of 64-lane bit-sliced groups holding the
// partition's sets.
func (p *partition) nGroups() int { return (int(p.n) + 63) / 64 }
