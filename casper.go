// Package casper is a workload-driven columnar storage engine for hybrid
// transactional/analytical workloads, reproducing "Optimal Column Layout for
// Hybrid Workloads" (Athanassoulis, Bøgh, Idreos; PVLDB 12(13), 2019).
//
// The engine stores a keyed relation column-wise. Its key column can be laid
// out under six strategies — from plain insertion order, through sorted plus
// delta store (today's state of the art), to Casper's optimizer-chosen range
// partitioning with per-partition ghost-value buffers. Given a sample
// workload, Train solves a binary optimization problem that picks the
// partition sizes and buffer placement minimizing total workload cost,
// optionally under read/update latency SLAs.
//
// Quickstart:
//
//	keys := casper.UniformKeys(1_000_000, 10_000_000, 42)
//	eng, _ := casper.Open(keys, casper.Options{Mode: casper.ModeCasper})
//	sample, _ := casper.PresetWorkload(casper.HybridSkewed, keys, 10_000_000, 10_000, 1)
//	_ = eng.Train(sample, runtime.NumCPU())
//	n := eng.PointQuery(12345)          // scans one partition
//	_ = eng.Insert(777)                  // absorbed by a ghost slot
//
// # Architecture: sharding & background retraining
//
// Internally the engine is a fleet of independently laid-out Casper tables
// (internal/shard). Options.Shards hash- or range-partitions the key domain
// across N tables, each with its own locks, monitor window, and cost-model
// training state; the default of 1 shard preserves the original single-table
// behavior exactly. Point queries route to the owning shard; range reads fan
// out across the spanned shards on parallel goroutines and merge their
// results; ApplyBatch groups a write batch by shard and applies the groups
// concurrently.
//
// StartAutoRetrain launches a background worker implementing the paper's
// online arc (Fig. 10): every operation feeds a per-shard access histogram,
// and when a shard's histogram drifts past a total-variation threshold from
// the one captured at its last training, the worker re-solves that shard's
// layout on a shadow copy of the table and swaps the copy in atomically.
// Writes that land mid-training are journaled and replayed onto the shadow
// before the swap, so re-layout never loses a mutation and readers never
// block on the solver.
//
// On range-partitioned engines (Options.ShardByRange) the same loop extends
// across the shard boundary: when the key distribution drifts so far that
// one shard holds a disproportionate share of the rows, Rebalance (or the
// StartAutoRebalance worker) re-splits the shard boundaries on the current
// quantiles and migrates rows between shards through the staged-move
// protocol — concurrent readers observe every row on exactly one shard
// throughout, and on durable engines the boundary change survives crashes.
//
// Cross-shard key moves (UpdateKey between shards) commit through an
// epoch-based protocol: the engine keeps a global epoch counter — shared
// with the transaction manager, so commits and moves draw from one time
// domain — and every query reads under a stable epoch. A moving row is
// staged out of its source shard and published into its destination with a
// single epoch bump, so a concurrent reader observes it on exactly one
// shard at all times. View pins move visibility across several queries when
// an invariant spans more than one call.
package casper

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"casper/internal/iomodel"
	"casper/internal/obs"
	"casper/internal/shard"
	"casper/internal/solver"
	"casper/internal/table"
	"casper/internal/txn"
	"casper/internal/wal"
	"casper/internal/workload"
)

// Mode selects the column layout strategy (§7 of the paper).
type Mode = table.Mode

const (
	// ModeNoOrder stores the column in insertion order (vanilla
	// column-store baseline).
	ModeNoOrder = table.NoOrder
	// ModeSorted keeps the key column fully sorted.
	ModeSorted = table.Sorted
	// ModeStateOfArt is a sorted column with a global delta store — the
	// paper's state-of-the-art comparison point.
	ModeStateOfArt = table.StateOfArt
	// ModeEqui uses equi-width range partitioning.
	ModeEqui = table.Equi
	// ModeEquiGV adds evenly distributed ghost values to ModeEqui.
	ModeEquiGV = table.EquiGV
	// ModeCasper uses the workload-optimized layout (call Train).
	ModeCasper = table.Casper
)

// AllModes lists every layout mode in the paper's comparison order.
var AllModes = table.Modes

// Options configures Open.
type Options struct {
	// Mode is the layout strategy (the zero value is ModeNoOrder); Open
	// rejects an unknown mode.
	Mode Mode
	// PayloadCols is the number of payload columns beside the key
	// (default 15, matching the paper's 16-column narrow table).
	PayloadCols int
	// ChunkValues is the column chunk size (default 1M, §7).
	ChunkValues int
	// BlockBytes is the logical block size (default 16 KB, §7).
	BlockBytes int
	// GhostFrac is the ghost value budget as a fraction of the data size
	// (default 0.001 = 0.1%, Fig. 12).
	GhostFrac float64
	// Partitions is the per-chunk partition count for the Equi modes and
	// the fairness budget for ModeCasper (§7). Default: one per block.
	Partitions int
	// MinPartitions forces ModeCasper to keep at least this many
	// partitions per chunk; used by experiments that isolate the ghost
	// value effect under a fixed amount of structure.
	MinPartitions int
	// ReadSLA bounds point query latency in nanoseconds (0 = none); it
	// constrains the maximum partition size (Eq. 21).
	ReadSLA float64
	// UpdateSLA bounds insert/update latency in nanoseconds (0 = none);
	// it constrains the partition count (Eq. 21).
	UpdateSLA float64
	// MergeThreshold overrides the delta-store merge trigger
	// (ModeStateOfArt).
	MergeThreshold int
	// Calibrate micro-benchmarks the block access constants instead of
	// using the paper's defaults (§4.5).
	Calibrate bool
	// PayloadGen derives payload values from keys at load and insert
	// time; nil uses the package default.
	PayloadGen func(key int64, col int) int32
	// Shards splits the key domain across this many independent tables,
	// each with its own locks and training state (default 1 — exactly the
	// original single-table engine).
	Shards int
	// ShardByRange partitions shards on the initial keys' quantiles
	// instead of the default hash partitioning. Range sharding prunes
	// range-query fan-out; hash sharding spreads hot key ranges across
	// the whole fleet.
	ShardByRange bool
	// Dir enables durability: every shard keeps an append-only write-ahead
	// log and chunk checkpoints under this directory, and Open recovers
	// any state the directory already holds (see Open). Empty keeps the
	// engine fully in-memory.
	Dir string
	// Sync selects the WAL fsync policy for durable engines (default
	// SyncModeInterval).
	Sync SyncMode
	// SyncEvery bounds WAL staleness under SyncModeInterval (default
	// 100ms).
	SyncEvery time.Duration
	// Admission configures the write admission controller: a token-bucket
	// write limiter with per-tenant fairness lanes whose refill rate is
	// governed by the drift monitors, so a write burst cannot outrun
	// background retraining. Gated writes shed with ErrOverload or block
	// up to AdmissionPolicy.MaxWait; see Engine.Writer for tenant-scoped
	// handles. The zero value disables admission control.
	Admission AdmissionPolicy
}

// AdmissionPolicy configures the write admission controller; see
// shard.AdmissionPolicy for field semantics. The zero value disables it.
type AdmissionPolicy = shard.AdmissionPolicy

// ErrOverload is returned by admission-gated writes when the engine is
// shedding write load; the op was not applied. See Options.Admission.
var ErrOverload = shard.ErrOverload

// SyncMode selects when a durable engine fsyncs its write-ahead logs.
type SyncMode int

const (
	// SyncModeInterval fsyncs at most once per Options.SyncEvery — bounded
	// data loss, near-in-memory ingest throughput (the default).
	SyncModeInterval SyncMode = iota
	// SyncModeAlways makes every acknowledged write durable; concurrent
	// writers group-commit behind shared fsyncs.
	SyncModeAlways
	// SyncModeNone never fsyncs during operation (only at checkpoints and
	// Close); a crash loses whatever the OS had not flushed.
	SyncModeNone
)

func walPolicy(m SyncMode) wal.SyncPolicy {
	switch m {
	case SyncModeAlways:
		return wal.SyncAlways
	case SyncModeNone:
		return wal.SyncNone
	}
	return wal.SyncInterval
}

// Engine is a storage engine instance: a fleet of one or more independently
// laid-out Casper tables behind a single table-like API.
type Engine struct {
	sh     *shard.Engine
	params iomodel.CostParams
	mode   Mode
	mgr    *txn.Manager

	// obsOnce latches metric collection on: the first Metrics (or
	// EnableMetrics) call enables the registry permanently, so an engine
	// nobody inspects pays only one atomic load per operation.
	obsOnce sync.Once
}

// Open loads keys (any order) into a fresh engine.
//
// With Options.Dir set the engine is durable. If the directory already
// holds committed state, Open performs crash recovery instead of loading
// keys (the keys argument is ignored and may be nil): each shard's newest
// valid checkpoint is loaded — restoring rows, payloads, AND the trained
// partitioning, so no solver run is needed — and the WAL tail is replayed
// in epoch order, tolerating a torn final record. The epoch oracle resumes
// past the highest recovered epoch. An empty (or fresh) directory is
// bootstrapped from keys and the initial state persisted. Pass the same
// layout-affecting Options (Mode, PayloadCols, ChunkValues, …) across runs:
// the directory persists data and shard topology, not engine configuration.
func Open(keys []int64, opts Options) (*Engine, error) {
	cfg, params, oracle, err := shardConfig(opts)
	if err != nil {
		return nil, err
	}
	sh, err := shard.New(keys, cfg)
	if err != nil {
		return nil, fmt.Errorf("casper: %w", err)
	}
	return &Engine{sh: sh, params: params, mode: opts.Mode, mgr: txn.NewManagerWithOracle(oracle)}, nil
}

// shardConfig resolves Options into the shard-layer configuration, shared by
// Open and OpenFollower so a follower interprets the leader's data under
// identical table parameters.
func shardConfig(opts Options) (shard.Config, iomodel.CostParams, *txn.Oracle, error) {
	params := iomodel.EngineDefaults(opts.BlockBytes)
	if opts.Calibrate {
		params = iomodel.Calibrate(opts.BlockBytes)
	}
	payloadCols := opts.PayloadCols
	if payloadCols == 0 {
		payloadCols = 15
	}
	ghostFrac := opts.GhostFrac
	if ghostFrac == 0 {
		ghostFrac = 0.001
	}
	var sopts solver.Options
	sopts.MinPartitions = opts.MinPartitions
	if opts.ReadSLA > 0 {
		mps, err := solver.ReadSLAToMaxBlocks(opts.ReadSLA, params)
		if err != nil {
			return shard.Config{}, params, nil, fmt.Errorf("casper: read SLA: %w", err)
		}
		sopts.MaxPartitionBlocks = mps
	}
	if opts.UpdateSLA > 0 {
		k, err := solver.UpdateSLAToMaxPartitions(opts.UpdateSLA, params)
		if err != nil {
			return shard.Config{}, params, nil, fmt.Errorf("casper: update SLA: %w", err)
		}
		sopts.MaxPartitions = k
	}
	var gen table.PayloadGen
	if opts.PayloadGen != nil {
		gen = table.PayloadGen(opts.PayloadGen)
	}
	// One oracle serves transaction commit timestamps and cross-shard move
	// epochs, putting both in a single totally ordered time domain.
	oracle := txn.NewOracle()
	return shard.Config{
		Shards:    opts.Shards,
		ByRange:   opts.ShardByRange,
		Gen:       gen,
		Epoch:     oracle,
		Dir:       opts.Dir,
		Sync:      walPolicy(opts.Sync),
		SyncEvery: opts.SyncEvery,
		Admission: opts.Admission,
		Table: table.Config{
			Mode:           opts.Mode,
			PayloadCols:    payloadCols,
			ChunkValues:    opts.ChunkValues,
			GhostFrac:      ghostFrac,
			Partitions:     opts.Partitions,
			Params:         params,
			SolverOpts:     sopts,
			MergeThreshold: opts.MergeThreshold,
		},
	}, params, oracle, nil
}

// Mode returns the engine's layout mode.
func (e *Engine) Mode() Mode { return e.mode }

// Shards returns the engine's shard count.
func (e *Engine) Shards() int { return e.sh.Shards() }

// Len returns the live row count.
func (e *Engine) Len() int { return e.sh.Len() }

// Chunks returns the number of column chunks across all shards. It reads
// under the move gate, so the count reflects a single boundary set — never
// a mid-install rebalance state; see shard.Engine.Chunks for the full
// read-consistency contract.
func (e *Engine) Chunks() int { return e.sh.Chunks() }

// CostParams returns the calibrated block access constants in use.
func (e *Engine) CostParams() string { return e.params.String() }

// Train re-partitions a ModeCasper engine for the sampled workload: the
// sample is split per shard, then each shard builds per-chunk Frequency
// Models, solves the layout optimization (parallel across chunks), and
// applies the layouts with Eq. 18 ghost allocation.
func (e *Engine) Train(sample []Op, parallelism int) error {
	return e.sh.Train(sample, parallelism)
}

// PointQuery returns the number of live rows with the given key (Q1).
func (e *Engine) PointQuery(key int64) int { return e.sh.PointQuery(key) }

// RangeCount counts live rows with keys in [lo, hi] (Q2).
func (e *Engine) RangeCount(lo, hi int64) int { return e.sh.RangeCount(lo, hi) }

// RangeSum sums the keys of live rows in [lo, hi] (Q3).
func (e *Engine) RangeSum(lo, hi int64) int64 { return e.sh.RangeSum(lo, hi) }

// Filter is a conjunctive range predicate on one payload column: a row
// qualifies when Lo <= payload[Col] <= Hi.
type Filter = table.PayloadFilter

// MultiRangeSum runs a TPC-H-Q6-shaped query: key range plus payload
// filters, summing payload column sumCol over qualifying rows.
func (e *Engine) MultiRangeSum(lo, hi int64, filters []Filter, sumCol int) int64 {
	return e.sh.MultiRangeSum(lo, hi, filters, sumCol)
}

// Insert adds a row with the given key (Q4). Under admission control it may
// return ErrOverload without having been applied; on a durable engine a
// failed WAL append returns its error.
func (e *Engine) Insert(key int64) error { return e.sh.Insert(key) }

// Delete removes one row with the given key (Q5).
func (e *Engine) Delete(key int64) error { return e.sh.Delete(key) }

// UpdateKey changes one row's key, preserving its payload (Q6). When the
// old and new keys live on different shards the move commits through the
// engine's epoch-based cross-shard protocol: a concurrent reader observes
// the row on exactly one shard at all times — never on neither, never on
// both, and never with a torn payload.
func (e *Engine) UpdateKey(old, new int64) error { return e.sh.UpdateKey(old, new) }

// Writer is a tenant-scoped write handle: writes submitted through it pass
// admission control (Options.Admission) on that tenant's fairness lane and
// may return ErrOverload per the policy. On an engine without admission
// control it behaves like the plain write methods.
type Writer = shard.Writer

// Writer returns a write handle bound to the given tenant lane.
func (e *Engine) Writer(tenant int) *Writer { return e.sh.Writer(tenant) }

// Payload returns payload column col of one row with the given key.
func (e *Engine) Payload(key int64, col int) (int32, bool) { return e.sh.Payload(key, col) }

// Epoch returns the engine's current global epoch: it advances once per
// published cross-shard move and once per transaction commit.
func (e *Engine) Epoch() uint64 { return e.sh.Epoch() }

// Checkpoint persists every shard's current rows and trained layout and
// truncates the write-ahead logs at the checkpoint boundaries. Checkpoints
// also happen automatically after Train and after every background retrain
// swap. No-op on in-memory engines.
func (e *Engine) Checkpoint() error { return e.sh.Checkpoint() }

// SyncWAL forces all write-ahead logs to stable storage — a durability
// barrier for engines running Sync modes weaker than SyncModeAlways. No-op
// on in-memory engines.
func (e *Engine) SyncWAL() error { return e.sh.SyncWAL() }

// PendingMove describes one in-flight cross-shard key move: the row has
// left its source shard but is not yet published at its destination, and
// readers serve it at Old from the engine's staged-move registry.
type PendingMove = shard.PendingMove

// PendingMoves returns the cross-shard moves currently staged. Durable
// checkpoints fold these rows back in at their old key, so a checkpoint cut
// mid-move never persists a row on zero or two shards.
func (e *Engine) PendingMoves() []PendingMove { return e.sh.PendingMoves() }

// View is a move-stable multi-query read handle pinned to one routing
// snapshot: for the duration of the callback of Engine.View, the epoch, the
// shard boundaries, and the staged-move registry the view's queries route
// through are frozen — no cross-shard move can stage or publish and no
// rebalance can install new boundaries. Invariants that span several
// queries and depend only on move atomicity therefore hold exactly. It is
// not a full snapshot: single-shard writes (Insert, Delete, same-shard
// UpdateKey) do not pass through the move gate and may land between the
// view's queries. Its Scan cursor is only valid inside the callback.
type View = shard.View

// View runs fn over a move-stable read handle pinned at the current epoch
// and routing snapshot. Queries inside fn must go through the View's
// methods; calling Engine methods from inside fn can deadlock against a
// queued cross-shard move. Individual engine queries are already
// snapshot-stable on their own — View is only needed when one invariant
// spans several calls.
func (e *Engine) View(fn func(*View)) { e.sh.View(fn) }

// ---------------------------------------------------------------------------
// Streaming scans
// ---------------------------------------------------------------------------

// ScanOptions configures Engine.Scan and View.Scan: Limit caps the total
// rows yielded (0 = unlimited), Batch tunes the per-shard batch size, and
// PageToken resumes a scan where a previous cursor's PageToken left off.
type ScanOptions = shard.ScanOptions

// Cursor streams the live rows with keys in [lo, hi] in ascending key
// order, lazily: it materializes one small batch per shard at a time —
// memory and first-row latency are bounded by the batch size, never the
// result size — and holds no locks between Next calls, so a consumer may
// page at leisure while writers proceed.
//
// Next advances and reports whether a row is available; Key and Payload
// read the current row (the payload slice is valid only until the next
// Next/SeekTo/Close — copy to retain); SeekTo jumps forward or backward
// within the scanned range; PageToken returns a resume token for a later
// Scan; Err surfaces construction failures such as a malformed page token;
// Close releases the cursor's buffers.
//
// Concurrent writes: an Engine cursor observes inserts and deletes that
// land ahead of its position and misses those behind it (each row it does
// yield is never torn), and a key moved across the scan frontier by
// UpdateKey or a rebalance mid-scan may be missed or seen twice. A View
// cursor (View.Scan) pins the routing snapshot instead: moves and installs
// cannot interleave at all. Stable pagination under live ingest therefore
// wants page tokens (each page is internally exact) or a View (exact
// across pages).
type Cursor = shard.Cursor

// ErrBadPageToken reports a malformed ScanOptions.PageToken, surfaced
// through Cursor.Err.
var ErrBadPageToken = shard.ErrBadPageToken

// Scan opens a streaming cursor over [lo, hi] — the lazy alternative to
// the materialized aggregates for large or LIMIT-bounded reads. The scan
// feeds the engine's drift monitor as a range access over the requested
// span, so scan-heavy workloads train the layout solver and trigger
// retraining like any other range read. Always Close the cursor.
func (e *Engine) Scan(lo, hi int64, opts ScanOptions) *Cursor { return e.sh.Scan(lo, hi, opts) }

// OpKind enumerates workload operations.
type OpKind = workload.Kind

const (
	PointQuery = workload.Q1PointQuery
	RangeCount = workload.Q2RangeCount
	RangeSum   = workload.Q3RangeSum
	Insert     = workload.Q4Insert
	Delete     = workload.Q5Delete
	Update     = workload.Q6Update
	// Scan is a streaming cursor read over [Key, Key2], optionally
	// LIMIT-bounded by Op.Limit. Execute drains the cursor and returns the
	// row count; for the layout solver and drift monitor it is a range
	// access over the span it requests.
	Scan = workload.Q8Scan
)

// Op is one workload operation. Key2 holds the range end (RangeCount,
// RangeSum, Scan) or the new key (Update). Limit caps the rows a Scan
// yields (0 = unlimited) and is ignored by every other kind.
type Op = workload.Op

// Execute runs one operation and returns its sink value: the query result,
// the rows a Scan yielded, or 1 for an applied write. A failed write returns
// 0 and its error, as does an unknown op kind.
func (e *Engine) Execute(op Op) (int64, error) { return e.sh.Execute(op) }

// ApplyBatch groups the operations by owning shard and applies each group on
// its own goroutine — the batched write path. Operations keep their relative
// order within a shard; operations spanning shards apply after the
// per-shard waves. It returns the summed sink values; a failed op does not
// stop the rest of the batch, and the error joins the first failure of
// every group.
func (e *Engine) ApplyBatch(ops []Op) (int64, error) { return e.sh.ApplyBatch(ops) }

// LayoutSummary describes one chunk's physical layout: its shard, its chunk
// index, and the live values (Sizes) and free ghost slots (Ghosts) of each
// partition.
type LayoutSummary = shard.LayoutSummary

// Layouts reports the current physical layout of partitioned chunks across
// all shards.
func (e *Engine) Layouts() []LayoutSummary { return e.sh.Layouts() }

// ---------------------------------------------------------------------------
// Workload helpers
// ---------------------------------------------------------------------------

// Workload preset names (§7.1 mixes; see EXPERIMENTS.md).
const (
	HybridSkewed      = workload.HybridSkewed
	HybridRangeSkewed = workload.HybridRangeSkewed
	ReadOnlySkewed    = workload.ReadOnlySkewed
	ReadOnlyUniform   = workload.ReadOnlyUniform
	UpdateOnlySkewed  = workload.UpdateOnlySkewed
	UpdateOnlyUniform = workload.UpdateOnlyUniform
	SLAHybrid         = workload.SLAHybrid
	ScanHeavy         = workload.ScanHeavy
)

// PresetWorkload generates ops operations of the named HAP preset against
// the initial keys over the domain [0, domainMax].
func PresetWorkload(name string, keys []int64, domainMax int64, ops int, seed int64) ([]Op, error) {
	spec, err := workload.Preset(name, ops, seed)
	if err != nil {
		return nil, err
	}
	return workload.Generate(keys, domainMax, spec)
}

// UniformKeys generates n uniformly distributed keys over [0, domainMax].
func UniformKeys(n int, domainMax int64, seed int64) []int64 {
	return workload.UniformKeys(n, domainMax, seed)
}

// ---------------------------------------------------------------------------
// Transactions (§6.1: snapshot isolation, first committer wins)
// ---------------------------------------------------------------------------

// Tx is a snapshot-isolation transaction over row presence. Reads observe
// the snapshot at Begin; buffered writes apply to storage only on Commit.
// Concurrent transactions writing the same key conflict: the first to
// commit wins, later ones abort.
type Tx struct {
	e     *Engine
	inner *txn.Txn
	ops   []Op
}

// Begin starts a transaction.
func (e *Engine) Begin() *Tx {
	return &Tx{e: e, inner: e.mgr.Begin()}
}

// seen ensures the version store knows the storage state of key before the
// transaction reasons about it.
func (t *Tx) seen(key int64) {
	if _, ok := t.e.mgr.ReadCommitted(key); !ok {
		if n := t.e.sh.PointQuery(key); n > 0 {
			t.e.mgr.Seed(key, int64(n))
		}
	}
}

// Exists reports whether a row with the key is visible in the snapshot.
func (t *Tx) Exists(key int64) (bool, error) {
	t.seen(key)
	v, ok, err := t.inner.Read(key)
	if err != nil {
		return false, err
	}
	return ok && v > 0, nil
}

// Insert buffers a row insertion.
func (t *Tx) Insert(key int64) error {
	t.seen(key)
	v, _, err := t.inner.Read(key)
	if err != nil {
		return err
	}
	if err := t.inner.Write(key, v+1); err != nil {
		return err
	}
	t.ops = append(t.ops, Op{Kind: Insert, Key: key})
	return nil
}

// Delete buffers a row deletion.
func (t *Tx) Delete(key int64) error {
	t.seen(key)
	v, ok, err := t.inner.Read(key)
	if err != nil {
		return err
	}
	if !ok || v <= 0 {
		return fmt.Errorf("casper: delete of absent key %d", key)
	}
	if v == 1 {
		if err := t.inner.Delete(key); err != nil {
			return err
		}
	} else if err := t.inner.Write(key, v-1); err != nil {
		return err
	}
	t.ops = append(t.ops, Op{Kind: Delete, Key: key})
	return nil
}

// Update buffers a key change.
func (t *Tx) Update(old, new int64) error {
	if err := t.Delete(old); err != nil {
		return err
	}
	if err := t.Insert(new); err != nil {
		return err
	}
	// Collapse the pair into one storage-level update so the payload
	// travels with the row.
	t.ops = t.ops[:len(t.ops)-2]
	t.ops = append(t.ops, Op{Kind: Update, Key: old, Key2: new})
	return nil
}

// Commit validates the transaction (first committer wins) and applies its
// writes to storage. Writes that fail to apply after validation (for
// example, shed by admission control) are reported in the returned error.
func (t *Tx) Commit() error {
	if err := t.inner.Commit(); err != nil {
		if o := t.e.sh.Obs(); o.Enabled() && errors.Is(err, txn.ErrConflict) {
			o.TxnConflicts.Inc(0)
		}
		return err
	}
	if o := t.e.sh.Obs(); o.Enabled() {
		o.TxnCommits.Inc(0)
	}
	var errs []error
	for _, op := range t.ops {
		if _, err := t.e.Execute(op); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Abort discards the transaction.
func (t *Tx) Abort() {
	t.inner.Abort()
	if o := t.e.sh.Obs(); o.Enabled() {
		o.TxnAborts.Inc(0)
	}
}

// ---------------------------------------------------------------------------
// Misc
// ---------------------------------------------------------------------------

// SortKeys sorts keys ascending in place and returns them; a convenience
// for loading pre-sorted data.
func SortKeys(keys []int64) []int64 {
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// ShiftWorkload returns a copy of ops with every key rotated right by frac
// of the domain (wrapping), modeling Fig. 16's rotational workload
// uncertainty: the layout was trained for one access pattern and serves a
// shifted one.
func ShiftWorkload(ops []Op, domainMax int64, frac float64) []Op {
	shift := int64(frac * float64(domainMax+1))
	rot := func(v int64) int64 {
		v += shift
		if v > domainMax {
			v -= domainMax + 1
		}
		return v
	}
	out := make([]Op, len(ops))
	for i, op := range ops {
		out[i] = op
		out[i].Key = rot(op.Key)
		if op.Kind == RangeCount || op.Kind == RangeSum {
			// Keep ranges contiguous: shift both ends; clamp at wrap.
			lo, hi := rot(op.Key), rot(op.Key2)
			if hi < lo {
				hi = domainMax
			}
			out[i].Key, out[i].Key2 = lo, hi
		} else if op.Kind == Update {
			out[i].Key2 = op.Key2 // update targets stay put
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Online re-partitioning (the A' arc of Fig. 10)
// ---------------------------------------------------------------------------

// RetrainPolicy tunes the background auto-retrainer (see StartAutoRetrain):
// drift check cadence, minimum ops per shard since its last training, the
// total-variation drift threshold, and per-retrain solver parallelism. Zero
// fields select defaults.
type RetrainPolicy = shard.RetrainPolicy

// StartAutoRetrain launches the background retraining worker: every
// operation feeds per-shard access histograms, and a shard whose access
// pattern drifts past the policy threshold is re-trained on a shadow copy
// that is swapped in atomically — reads and writes never block on the
// solver. Requires ModeCasper.
func (e *Engine) StartAutoRetrain(p RetrainPolicy) error { return e.sh.StartAutoRetrain(p) }

// StopAutoRetrain stops the background retrainer, waiting for any in-flight
// retrain to finish. Safe to call when none is running.
func (e *Engine) StopAutoRetrain() { e.sh.StopAutoRetrain() }

// Retrains returns the number of completed background shard retrains.
func (e *Engine) Retrains() uint64 { return e.sh.Retrains() }

// ---------------------------------------------------------------------------
// Shard rebalancing (range-partitioned engines)
// ---------------------------------------------------------------------------

// RebalanceResult reports one shard-boundary re-split: rows moved (and the
// straggler subset caught by the publish-window rescan of the changed
// ownership intervals), boundary sets before and after, max/mean row-count
// skew around the rebalance, and the duration of the exclusive install
// window.
type RebalanceResult = shard.RebalanceResult

// RebalanceStrategy selects the boundary proposer used by Rebalance,
// RebalanceWith, and the auto-rebalancer.
type RebalanceStrategy = shard.RebalanceStrategy

const (
	// RebalanceMinimal (the default) re-splits only the shards breaching
	// the skew bound, plus the neighbors absorbing their load; every other
	// boundary stays bit-identical, so migration volume and the
	// publish-window pause track the drift size rather than the table size.
	RebalanceMinimal = shard.RebalanceMinimal
	// RebalanceQuantile re-splits every boundary on the global quantiles —
	// the exhaustive baseline.
	RebalanceQuantile = shard.RebalanceQuantile
)

// Rebalance re-splits the shard boundaries of a range-partitioned engine
// (Options.ShardByRange) on the current key distribution and migrates rows
// so every shard owns its new range, under the minimal-movement proposer:
// only the shards breaching the skew bound re-split (starved neighbors
// absorb their load), every other boundary stays bit-identical, and only
// rows in intervals whose owner actually changes migrate — a no-op when no
// shard breaches. Rows migrate through the engine's staged-move protocol:
// concurrent readers observe every row on exactly one shard throughout, and
// reads keep flowing except during bounded exclusive windows (the last one
// reported as Pause). Writes keep flowing with one caveat shared with
// cross-shard moves: a Delete or UpdateKey targeting a row currently in
// flight fails with "absent key" until the rebalance publishes — retry
// afterwards. On a durable engine the boundary change and bulk moves are
// WAL-logged and checkpointed, so a crash at any point recovers to one
// consistent boundary set.
func (e *Engine) Rebalance() (RebalanceResult, error) { return e.sh.Rebalance() }

// RebalanceWith is Rebalance under an explicit proposal strategy;
// RebalanceQuantile restores the exhaustive all-boundaries re-split, for
// comparing migration volume and publish pause against the minimal default
// (casperbench -rebalance reports both side by side).
func (e *Engine) RebalanceWith(s RebalanceStrategy) (RebalanceResult, error) {
	return e.sh.RebalanceWith(s)
}

// RebalanceTo migrates rows onto an explicit boundary set (strictly
// increasing, exactly Shards()-1 entries) — manual resharding for operators
// who know the target distribution better than any proposer. The migration
// is still planned from the ownership delta, so unchanged boundaries cost
// nothing; otherwise identical to Rebalance.
func (e *Engine) RebalanceTo(bounds []int64) (RebalanceResult, error) {
	return e.sh.RebalanceTo(bounds)
}

// ShardRowCounts returns the live-row count of every shard — the skew
// detector's input, useful for observing drift before rebalancing.
func (e *Engine) ShardRowCounts() []int { return e.sh.RowCounts() }

// ShardSkew returns the current max/mean shard row-count ratio (1 means
// perfectly balanced).
func (e *Engine) ShardSkew() float64 { return e.sh.Skew() }

// RebalancePolicy tunes the background auto-rebalancer (see
// StartAutoRebalance): skew check cadence, the max/mean skew trigger, the
// proposal strategy, and the minimum rows and monitored ops before a
// rebalance is considered. Zero fields select defaults.
type RebalancePolicy = shard.RebalancePolicy

// StartAutoRebalance launches the background rebalancing worker: when the
// key distribution drifts so far that one shard holds MaxSkew times the mean
// row count (and the engine is absorbing writes), the shard boundaries are
// re-split automatically — the sharded analogue of the auto-retrainer's
// in-shard re-layout. Requires Options.ShardByRange.
func (e *Engine) StartAutoRebalance(p RebalancePolicy) error { return e.sh.StartAutoRebalance(p) }

// StopAutoRebalance stops the background rebalancer, waiting for any
// in-flight rebalance to finish. Safe to call when none is running.
func (e *Engine) StopAutoRebalance() { e.sh.StopAutoRebalance() }

// Rebalances returns the number of completed shard rebalances (manual and
// automatic).
func (e *Engine) Rebalances() uint64 { return e.sh.Rebalances() }

// Close stops background workers and, on a durable engine, fsyncs and
// closes the write-ahead logs, returning the first failure — under Sync
// modes weaker than SyncModeAlways this final fsync is what makes the
// latest writes durable. The engine remains usable for queries; writes
// after Close lose durability and report it in their error.
func (e *Engine) Close() error { return e.sh.Close() }

// ---------------------------------------------------------------------------
// Observability: metrics registry and lifecycle event journal
// ---------------------------------------------------------------------------

// Snapshot is a point-in-time, JSON-marshalable view of every engine metric.
// All counts are monotonic, so the rate over an interval is the difference
// of two snapshots. The schema:
//
//   - Enabled: whether metric collection is on (Metrics turns it on).
//   - Epoch: the engine's global epoch at snapshot time — diffing two
//     snapshots gives the epoch rate (cross-shard moves + txn commits).
//   - EventSeq: sequence number of the newest journaled event; pass it to
//     Events to read only what is new.
//   - Ops: per-operation counts and latency histograms, keyed by operation
//     name ("point_query", "range_count", "range_sum", "multi_range",
//     "scan", "insert", "delete", "update_key", "payload", "len",
//     "chunks"). Latency histograms are power-of-two bucketed (an entry
//     with UpperBound u counts observations in (previous bound, u]) and
//     sampled (every 8th operation by default), so histogram counts are a
//     fraction of op counts.
//   - StripeRetries: optimistic gate-stripe revalidation retries (route
//     moved mid-lock).
//   - FanSubmits / FanInline: fan-out pool tasks run on workers vs inline
//     on the caller (pool saturated or single-CPU).
//   - CursorBatches: per-shard batches yielded to streaming cursors.
//   - CompensationHits: rows served from the staged-move registry because a
//     cross-shard move or rebalance had them in flight.
//   - Txn: commits, write-write conflicts, and explicit aborts at the Tx
//     API.
//   - WAL: appends, bytes, segment rolls, fsync latency histogram, and
//     group-commit batch-size histogram across all shard logs.
//   - Retrain / Rebalance: lifecycle durations — retrain wall time,
//     publish-window pause, rows migrated.
//   - Checkpoints: checkpoint cuts across all shards.
type Snapshot = obs.Snapshot

// Event is one engine lifecycle event from the bounded in-memory journal:
// retrain start/swap, rebalance propose/stage/publish/install, cross-shard
// move stage/publish/rollback, checkpoint cut/prune, WAL segment roll, and
// the recovery replay summary emitted during Open. Fields: Seq (monotonic,
// 1-based), UnixNano, Kind (e.g. "rebalance.publish"), Shard (-1 =
// engine-wide), and optional Epoch, Rows, DurNs, Note. The journal keeps
// the newest 1024 events; events are always recorded, even with metrics
// disabled, so Open-time history (recovery replay) is never lost.
type Event = obs.Event

// OpStats is one operation's count and latency histogram in a Snapshot.
type OpStats = obs.OpStats

// HistStats is a histogram snapshot: Count, Sum, and sparse power-of-two
// buckets, with Mean and Quantile helpers (Quantile returns a bucket
// upper bound — an overestimate of at most 2x).
type HistStats = obs.HistStats

// Metrics snapshots the engine's metrics registry. The first call (or
// EnableMetrics) permanently enables collection; before that the engine
// pays a single atomic check per operation and records nothing. The
// returned Snapshot marshals to JSON and is served over HTTP by
// obs/httpdebug (casperbench -http).
func (e *Engine) Metrics() Snapshot {
	e.obsOnce.Do(e.sh.EnableObs)
	return e.sh.Metrics()
}

// EnableMetrics turns metric collection on without taking a snapshot — call
// it at startup so the first Metrics diff covers the whole interval.
func (e *Engine) EnableMetrics() { e.obsOnce.Do(e.sh.EnableObs) }

// Events returns the journaled lifecycle events with Seq > since, oldest
// first — pass 0 for everything retained, or the EventSeq of the last
// Snapshot (or the Seq of the last Event seen) to tail incrementally.
func (e *Engine) Events(since uint64) []Event { return e.sh.Events(since) }
