// Package shard scales the single-table Casper engine to a fleet of
// independently laid-out tables. The paper observes that column layouts
// "create regions of the data that can be processed in parallel" (§6);
// shard takes that to its production conclusion:
//
//   - the key domain is hash- or range-partitioned across N tables, each
//     with its own locks, monitor window, and cost-model training state;
//   - point and range reads fan out across the spanned shards and merge;
//   - ApplyBatch groups a write batch by shard and applies the groups in
//     parallel;
//   - a background worker watches per-shard access-pattern drift and
//     re-trains drifted shards on a shadow copy, swapping the new layout in
//     atomically so reads never block on re-layout (the online A' arc of
//     Fig. 10);
//   - cross-shard key moves commit through an epoch-based protocol (below),
//     so a concurrent reader observes a moving row on exactly one shard at
//     all times.
//
// A 1-shard engine is behaviorally identical to the bare table, which keeps
// the public casper API backward compatible.
//
// # Epoch-based cross-shard commit protocol
//
// The engine carries a global epoch counter (a txn.Oracle, shareable with
// the transaction manager so commits and moves draw from one time domain)
// and a registry of staged cross-shard moves. Routing state — the epoch,
// the partitioner, and the staged-move registry (indexed by old key) — is
// published as one immutable snapshot behind an atomic pointer (routeSnap),
// so the hot read path pays one atomic load, not a contended lock acquire.
// Consistency comes from the striped move gate: one reader/writer stripe
// per shard. A point read holds the single stripe owning its key shared; a
// range read holds exactly the stripes its span touches; whole-fleet reads
// (Len, Chunks, View, RowCounts) hold every stripe shared. Move-gate
// transitions — staging or publishing a cross-shard move, a rebalance
// install — hold every stripe exclusively in ascending stripe order, so
// holding any one stripe shared freezes the entire snapshot: the epoch,
// the boundaries, and the registry are stable for the whole operation, and
// disjoint reads no longer contend on a single gate cache line.
//
// A reader validates its stripes optimistically: load the snapshot, lock
// the stripes the snapshot's partitioner routes to, then reload. If the
// partitioner changed in between (a rebalance install won the race), the
// stripes may be the wrong ones — unlock and retry; otherwise the freshest
// snapshot is used under the held stripes. Installs are rare, so the retry
// loop almost always exits on the first pass.
//
// A cross-shard UpdateKey commits in two short exclusive windows:
//
//  1. Stage: take the row from the source shard and register the staged
//     move (key pair + payload) in the registry. From this instant readers
//     compensate: the staged row still counts at its old key, served from
//     the registry instead of the source table.
//  2. Publish: insert the row at the destination shard, retire the registry
//     entry, and bump the global epoch — a single epoch bump that flips the
//     row's visible home from the old key to the new one atomically.
//
// Because both transitions happen while readers are excluded (they take
// every stripe), and readers hold their stripes across their whole fan-out,
// no reader ever observes the row on zero shards or on two shards —
// including while a shadow retrain of either shard is in flight (both
// halves journal like any other write, with the payload pinning row
// identity and the epoch recording commit order).
//
// # Lock order
//
// Gate stripes come first, then shard locks, then journal locks:
//
//	gate stripe(s) (ascending stripe index) → shard.mu → shard.jmu
//
// Multi-stripe acquisitions — range spans, whole-fleet reads, and the
// all-stripe exclusive windows of moves and installs — always acquire in
// ascending stripe index order and release in descending order. Shard code
// never acquires a stripe while holding shard.mu or jmu, so the order is
// acyclic. layoutMu (per-shard layout serialization) is taken without any
// stripe held and never nests inside one; monitor locks never nest inside
// shard or table locks. The fan-out worker pool executes read closures
// that take shard.mu only, so pool workers obey the same order.
//
// Observability (internal/obs) sits outside this order entirely: metric
// recording is lock-free (atomic counters and histogram buckets) and must
// never be called while holding shard.mu or jmu — recording under gate
// stripes is allowed, and the one sanctioned exception is WAL byte/append
// accounting inside wal.Log, which runs under the log's own mutex while
// the caller holds mu.RLock+jmu (atomics only, so no order edge is
// created). Event-journal appends take only the journal's leaf mutex and
// follow the same rule: emit lifecycle events after shard.mu/jmu windows
// close (checkpoints, retrains) or under gate stripes alone (move
// publish).
//
// Streaming scans (stream.go) follow the same order with one extra rule:
// a cursor-mode shardSource acquires its shard's gate stripe shared only
// for the duration of ONE batch fill — stripe → shard.mu → chunk locks,
// all released before the batch is handed to the consumer — and never
// holds any lock across a consumer yield. It revalidates at every fill:
// the routing snapshot is reloaded under the stripe (observing any install
// that landed between batches) and the table pointer is re-checked under
// shard.mu (restarting the chunk iterator at the resume key if a shadow
// retrain swapped the table). Pinned-mode sources (View.Scan) must NOT
// touch stripes — their caller already holds the covering stripes shared,
// and re-acquiring would deadlock behind a queued writer — so they take
// only shard.mu per batch. Aggregates never stream: they hold lockSpan (or
// a View's stripes) across one fanOut of the tables' native kernels, each
// taking shard.mu then one chunk lock at a time, and add staged-move
// compensation under the same pinned snapshot. Prefetch fills run on
// fan-out pool workers and acquire stripe/shard.mu in the same order; a
// fill never blocks on its consumer (the batch hand-off channel always has
// room), so pool saturation degrades to inline fills, never deadlock.
//
// # Drift-triggered shard rebalancing
//
// Range partitioning fixes boundaries at load time, so a drifted key
// distribution piles rows onto one shard. Rebalancing (rebalance.go) is the
// sharded analogue of re-partitioning inside a shard: a detector watches
// per-shard row counts (max/mean skew) and write rates, proposes fresh
// boundaries — by default the minimal-movement proposer, which re-splits
// only the shards breaching the skew bound (merging load into their starved
// neighbors) and leaves every other boundary bit-identical; the exhaustive
// global-quantile re-split remains selectable as RebalanceQuantile — and
// migrates rows through a three-step protocol that extends the cross-shard
// commit protocol above. The whole migration is planned from the ownership
// delta: the key intervals whose owner differs between the old and new
// bounds. Rows outside those intervals keep their owner by construction, so
// every scan below is bounded to them (table.KeysInRange) and both the
// migration volume and the publish pause scale with the drift actually
// absorbed, not with the table size:
//
//  1. Stage: rows inside the delta intervals are taken from the shards
//     losing them and parked in the staged-move registry (old key == new
//     key), in batches under short exclusive move-gate windows. Between
//     batches readers run normally, serving staged rows from the registry —
//     every row stays visible exactly once throughout.
//  2. Publish: under one exclusive move-gate window that also holds every
//     shard's swap lock (freezing single-shard writers), staged rows are
//     inserted at their destination shards, the delta intervals (only) are
//     rescanned for stragglers that landed after staging, and the bulk
//     moves are WAL-logged as MoveOut/MoveIn pairs plus a RecRebalance
//     boundary record carrying the (minimally changed) bounds.
//     Before freezing, the window raises an install barrier: new
//     cross-shard moves may not stage, and every in-flight one drains —
//     boundaries never change while a move is staged, so a staged row's
//     routed owner always equals the shard it physically left (the
//     invariant its WAL records and checkpoint folding rely on).
//  3. Install: still inside that window, the new RangePartitioner is
//     installed with a single epoch bump, flipping every migrated row's
//     visible home atomically; the registry entries retire with it.
//
// Writers route to a shard, then revalidate the route after acquiring the
// shard's swap lock: because the install holds every swap lock exclusively,
// a writer that raced the install observes the new partitioner once it gets
// the lock and re-routes instead of stranding its row on a shard that no
// longer owns the key. Readers hold their gate stripes shared for their
// full fan-out and validate the partitioner after locking, so they never
// observe a half-installed boundary set.
package shard

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"casper/internal/obs"
	"casper/internal/table"
	"casper/internal/txn"
	"casper/internal/wal"
	"casper/internal/workload"
)

// journalKind enumerates the mutations a retrain journal can carry.
type journalKind int

const (
	jInsert journalKind = iota
	jInsertRow
	jDelete
	jUpdate
)

// journalOp is one mutation recorded while a shadow retrain is in flight,
// replayed onto the shadow table before it is swapped in. Deletes and
// updates carry the payload of the row the live table actually touched, so
// replay resolves duplicate keys to the same row. Replay order is the
// append order established under jmu; the epoch stamp does not drive
// replay — it records which engine epoch each mutation was applied under,
// for diagnostics and tests.
type journalOp struct {
	kind  journalKind
	key   int64
	key2  int64
	row   []int32
	epoch uint64
	// skipWAL suppresses the WAL record for this mutation. The halves of a
	// cross-shard move set it: they journal normally (shadow retrains must
	// replay them) but durability logs the move as a MoveOut/MoveIn record
	// pair at publish instead, so recovery can reconcile a move whose
	// halves straddle the crash.
	skipWAL bool
}

// record converts a journal entry to its WAL form.
func (j journalOp) record() wal.Record {
	var k wal.Kind
	switch j.kind {
	case jInsert:
		k = wal.RecInsert
	case jInsertRow:
		k = wal.RecInsertRow
	case jDelete:
		k = wal.RecDelete
	case jUpdate:
		k = wal.RecUpdate
	}
	return wal.Record{Kind: k, Epoch: j.epoch, Key: j.key, Key2: j.key2, Row: j.row}
}

func (j journalOp) applyTo(t *table.Table) {
	switch j.kind {
	case jInsert:
		t.Insert(j.key)
	case jInsertRow:
		t.InsertRow(j.key, j.row)
	case jDelete:
		// Row-identity replay: drop the duplicate carrying exactly the
		// journaled payload (mirrored failure: key also absent in shadow).
		_ = t.DeleteRowExact(j.key, j.row)
	case jUpdate:
		if err := t.DeleteRowExact(j.key, j.row); err == nil {
			t.InsertRow(j.key2, j.row)
		}
	}
}

// errEmptyShard marks operations against a shard that holds no rows yet.
var errEmptyShard = fmt.Errorf("shard: empty shard")

// shard is one partition: a table plus the swap lock and retrain journal.
type shard struct {
	// idx is this shard's ordinal in eng.shards; together they let a write
	// revalidate its routing after acquiring the swap lock (see Engine.mutate
	// and the rebalance section of the package comment).
	idx int
	eng *Engine

	// mu guards the tbl pointer. Readers and writers hold it shared for
	// the duration of an operation; the retrainer holds it exclusive only
	// to snapshot and to swap, never while solving layouts.
	mu  sync.RWMutex
	tbl *table.Table // nil until the shard receives its first row

	// jmu guards the retrain journal. While journaling, writers apply
	// and append under mu.RLock + jmu (keeping journal order identical
	// to application order); the retrainer flips journaling and drains
	// the journal under mu.Lock, so a swap observes every mutation
	// applied to the outgoing table.
	jmu        sync.Mutex
	journaling bool // written only under mu.Lock; stable under mu.RLock
	journal    []journalOp

	// layoutMu serializes layout mutations (in-place Train vs shadow
	// retrain) on this shard: a user-driven Train blocks behind an
	// in-flight background retrain (and vice versa) instead of failing.
	layoutMu sync.Mutex

	cfg table.Config // table config, for seeding and shadow rebuilds
	mon *monitor
	ep  *txn.Oracle // engine epoch oracle, for stamping journal entries

	// Durability state (nil/zero on in-memory engines). log is the shard's
	// WAL handle; appends happen under mu.RLock + jmu exactly like journal
	// entries, so WAL order matches application order for dependent writes.
	// sdir is the shard's directory; ckptMu serializes checkpoints of this
	// shard; nextCkpt is the next checkpoint sequence number.
	log      *wal.Log
	sdir     string
	ckptMu   sync.Mutex
	nextCkpt uint64
}

// Config configures New.
type Config struct {
	// Shards is the partition count (default 1).
	Shards int
	// ByRange selects range partitioning on the initial keys' quantiles
	// instead of the default hash partitioning. Range partitioning prunes
	// range-query fan-out; hash partitioning spreads hot key ranges over
	// the whole fleet.
	ByRange bool
	// Table configures each shard's table.
	Table table.Config
	// Gen generates payload rows at load time (nil = table default).
	Gen table.PayloadGen
	// MonitorCap is the per-shard monitor window in operations
	// (default 8192); the window feeds background retraining.
	MonitorCap int
	// Epoch is the timestamp oracle backing the cross-shard commit
	// protocol. Passing the oracle of a txn.Manager puts transactional
	// commits and cross-shard moves in one time domain; nil creates a
	// private oracle.
	Epoch *txn.Oracle
	// Dir enables durability: each shard keeps an append-only WAL and
	// chunk checkpoints under this directory. When the directory already
	// holds a committed manifest, New recovers the persisted engine (keys
	// is ignored); otherwise it bootstraps from keys and persists the
	// initial state. Empty disables durability (fully in-memory).
	Dir string
	// Sync is the WAL fsync policy for durable engines (default
	// wal.SyncInterval).
	Sync wal.SyncPolicy
	// SyncEvery is the fsync interval under wal.SyncInterval (default
	// 100ms).
	SyncEvery time.Duration
	// Admission configures the write admission controller (admission.go):
	// a token-bucket write limiter with per-tenant fairness whose refill
	// rate the drift monitors govern. The zero value disables it.
	Admission AdmissionPolicy
}

// pendingMove is a cross-shard UpdateKey whose take half has executed but
// whose insert half has not yet published: the row is physically on neither
// shard, and readers serve it from this registry entry at its old key.
type pendingMove struct {
	old, new int64
	row      []int32
}

// Engine is a sharded Casper engine.
type Engine struct {
	cfg    table.Config
	shards []*shard

	// route is the atomically published routing snapshot: epoch,
	// partitioner, and staged-move index as of the last move-gate
	// transition. Reads load it once (one atomic load, no lock) and then
	// pin it by holding gate stripes shared; every transition — move
	// stage/publish/rollback, rebalance install — replaces the pointer
	// with a fresh immutable snapshot while holding every stripe
	// exclusively. Lock-free paths (batch grouping, monitor routing,
	// write pre-routing) load it once per decision; writes revalidate
	// their route under the shard swap lock.
	route atomic.Pointer[routeSnap]
	// stripes is the striped move gate, one stripe per shard, in shard
	// order. See the package comment's lock-order section; acquire
	// through lockKey/lockSpan/rlockAll/lockAll, never directly.
	stripes []gateStripe
	// pool is the bounded fan-out worker pool shared by every range read
	// (see fanPool).
	pool *fanPool

	// epoch is the global epoch counter of the cross-shard commit
	// protocol; publishing a cross-shard move advances it exactly once.
	epoch *txn.Oracle
	// installing (guarded by the all-stripe exclusive gate) is the
	// rebalance install barrier: while set, new cross-shard moves may not
	// stage. The rebalance publish window raises it and then waits for
	// every in-flight move to drain before installing the new partitioner,
	// so boundaries never change while a move is staged — logMove's record
	// placement and checkpointShard's registry folding may therefore
	// equate a staged row's routed owner with the shard it was physically
	// taken from.
	installing bool
	// failDestInsert, when non-nil, injects a destination-shard rejection
	// into the publish half of a cross-shard move (test seam for the
	// rollback path).
	failDestInsert func(shard int, key int64) error

	// Durability state (zero on in-memory engines): dir is the engine
	// directory, wopts the WAL options shared by every shard's log, and
	// moveSeq the cross-shard move ID counter pairing MoveOut/MoveIn WAL
	// records (allocated inside the publish window, so checkpoints cut
	// under the move gate see a stable horizon).
	durable bool
	dir     string
	wopts   wal.Options
	moveSeq atomic.Uint64
	// readonly marks a follower engine (NewFollower): every public mutation
	// fails with ErrReadOnly, and only its Replicator — which bypasses the
	// public write path entirely — changes table state.
	readonly bool
	// replayMismatches is the count of WAL records whose row-identity delete
	// failed during recovery replay (set once in recoverDurable, before the
	// engine is shared; see ReplayMismatches).
	replayMismatches int
	// betweenMoveWindows, when non-nil, runs between the stage and publish
	// windows of a cross-shard move with no locks held (test seam for
	// checkpoint-during-move coverage).
	betweenMoveWindows func()

	// obs is the engine's metrics registry and event journal, created in
	// initRoute with one stripe per shard. Metric recording is gated on
	// obs.Enabled() (refcounted, like monOn); journal events are recorded
	// unconditionally. See the lock-order section of the package comment
	// for where recording is allowed.
	obs *obs.Registry

	// adm is the write admission controller (admission.go); nil when
	// Config.Admission is zero. Set once in New before the engine is
	// shared, cleared only by Close.
	adm *admission

	// monOn counts the background workers (retrainer, rebalancer,
	// admission governor) that want per-operation monitor recording, so
	// the unmonitored fast path costs one atomic load and the workers can
	// start and stop independently.
	monOn        atomic.Int32
	keyLo, keyHi int64 // initial key extremes, for drift bucketing

	retrainMu sync.Mutex
	stopCh    chan struct{}
	doneCh    chan struct{}
	retrains  atomic.Uint64

	// Rebalance state (rebalance.go): rebalanceMu serializes rebalances,
	// rebalances counts completed ones, and the reb* channels bracket the
	// auto-rebalance worker. betweenRebalanceWindows (test seam) runs with no
	// locks held between the stage and publish phases; afterRebalanceWAL
	// (test seam) runs after the WAL commits but before the manifest rewrite.
	rebalanceMu             sync.Mutex
	rebalanceCtl            sync.Mutex
	rebStopCh               chan struct{}
	rebDoneCh               chan struct{}
	rebalances              atomic.Uint64
	betweenRebalanceWindows func()
	afterRebalanceWAL       func()
	// verifyRescan (test seam) runs inside the publish window, before the
	// straggler take pass, with the full-table straggler multiset and the
	// delta-bounded one — the shadow comparison behind the rescan
	// equivalence property test. Must not call engine operations (every
	// lock is held).
	verifyRescan func(full, bounded []int64)
}

// routeSnap is one immutable routing snapshot: the epoch, the partitioner,
// and the staged-move index as of the move-gate transition that published
// it. Readers pin a snapshot by holding gate stripes shared; transitions
// replace the whole pointer, never mutate a published snapshot.
type routeSnap struct {
	epoch uint64
	part  Partitioner
	moves *moveIndex
}

// moveIndex is the staged-move registry of a routing snapshot, kept sorted
// by old key so reader-side compensation is a binary search plus a walk of
// the matching entries instead of a scan of every staged move.
type moveIndex struct {
	byOld []*pendingMove
}

var emptyMoves = &moveIndex{}

func (ix *moveIndex) len() int { return len(ix.byOld) }

// forRange calls fn for every staged move whose old key lies in [lo, hi].
func (ix *moveIndex) forRange(lo, hi int64, fn func(*pendingMove)) {
	i := sort.Search(len(ix.byOld), func(i int) bool { return ix.byOld[i].old >= lo })
	for ; i < len(ix.byOld) && ix.byOld[i].old <= hi; i++ {
		fn(ix.byOld[i])
	}
}

// with returns a new index with add staged and drop retired. The receiver
// is never mutated (published snapshots are immutable).
func (ix *moveIndex) with(add []*pendingMove, drop *pendingMove) *moveIndex {
	out := make([]*pendingMove, 0, len(ix.byOld)+len(add))
	for _, m := range ix.byOld {
		if m != drop {
			out = append(out, m)
		}
	}
	out = append(out, add...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].old < out[j].old })
	return &moveIndex{byOld: out}
}

// without returns a new index dropping every move in drop.
func (ix *moveIndex) without(drop map[*pendingMove]bool) *moveIndex {
	out := make([]*pendingMove, 0, len(ix.byOld))
	for _, m := range ix.byOld {
		if !drop[m] {
			out = append(out, m)
		}
	}
	return &moveIndex{byOld: out}
}

// gateStripe is one stripe of the striped move gate, padded so the reader
// counts of different shards live on distinct cache lines — the contention
// the striping exists to remove.
type gateStripe struct {
	mu sync.RWMutex
	_  [128 - unsafe.Sizeof(sync.RWMutex{})%128]byte
}

// initRoute installs the initial routing snapshot and sizes the gate
// stripes and the fan-out pool; called once per constructed engine, before
// it is shared.
func (e *Engine) initRoute(part Partitioner) {
	e.obs = obs.New(part.Shards())
	e.stripes = make([]gateStripe, part.Shards())
	e.pool = newFanPool(e.obs)
	e.route.Store(&routeSnap{part: part, moves: emptyMoves})
}

// loadRoute returns the current routing snapshot. Only stable while at
// least one gate stripe is held; lock-free callers treat it as advisory.
func (e *Engine) loadRoute() *routeSnap { return e.route.Load() }

// loadPart returns the current partitioner.
func (e *Engine) loadPart() Partitioner { return e.route.Load().part }

// publishRoute installs a new routing snapshot carrying the current epoch.
// Caller holds every gate stripe exclusively, so no reader can be between
// its snapshot load and its compensation lookups.
func (e *Engine) publishRoute(part Partitioner, ix *moveIndex) {
	e.route.Store(&routeSnap{epoch: e.epoch.Now(), part: part, moves: ix})
}

// addMove publishes a snapshot with m staged; caller holds every stripe
// exclusively.
func (e *Engine) addMove(m *pendingMove) {
	v := e.route.Load()
	e.publishRoute(v.part, v.moves.with([]*pendingMove{m}, nil))
}

// dropMove publishes a snapshot with m retired; caller holds every stripe
// exclusively.
func (e *Engine) dropMove(m *pendingMove) {
	v := e.route.Load()
	e.publishRoute(v.part, v.moves.with(nil, m))
}

// lockKey acquires the gate stripe owning key shared and returns the
// snapshot it validated plus the stripe ordinal for unlockKey. See the
// package comment for the optimistic validation protocol.
func (e *Engine) lockKey(key int64) (*routeSnap, int) {
	for {
		v := e.route.Load()
		s := v.part.Shard(key)
		e.stripes[s].mu.RLock()
		w := e.route.Load()
		// Same snapshot, or a newer one under the same partitioner (a
		// move transition, which any held stripe excludes from here on):
		// the locked stripe is the right one. Only a rebalance install
		// can invalidate the routing; then retry.
		if w == v || w.part == v.part {
			return w, s
		}
		e.stripes[s].mu.RUnlock()
		if e.obs.Enabled() {
			e.obs.StripeRetries.Inc(s)
		}
	}
}

func (e *Engine) unlockKey(s int) { e.stripes[s].mu.RUnlock() }

// lockSpan acquires the stripes of the span [lo, hi] shared, in ascending
// order, and returns the validated snapshot plus the stripe interval for
// unlockSpan.
func (e *Engine) lockSpan(lo, hi int64) (*routeSnap, int, int) {
	for {
		v := e.route.Load()
		a, b := v.part.Span(lo, hi)
		for i := a; i <= b; i++ {
			e.stripes[i].mu.RLock()
		}
		w := e.route.Load()
		if w == v || w.part == v.part {
			return w, a, b
		}
		for i := b; i >= a; i-- {
			e.stripes[i].mu.RUnlock()
		}
		if e.obs.Enabled() {
			e.obs.StripeRetries.Inc(a)
		}
	}
}

func (e *Engine) unlockSpan(a, b int) {
	for i := b; i >= a; i-- {
		e.stripes[i].mu.RUnlock()
	}
}

// rlockAll acquires every stripe shared (ascending): the whole-fleet read
// gate. Holding it excludes every move-gate transition, so the snapshot
// needs no validation.
func (e *Engine) rlockAll() {
	for i := range e.stripes {
		e.stripes[i].mu.RLock()
	}
}

func (e *Engine) runlockAll() {
	for i := len(e.stripes) - 1; i >= 0; i-- {
		e.stripes[i].mu.RUnlock()
	}
}

// lockAll acquires every stripe exclusively (ascending): the move-gate
// transition window.
func (e *Engine) lockAll() {
	for i := range e.stripes {
		e.stripes[i].mu.Lock()
	}
}

func (e *Engine) unlockAll() {
	for i := len(e.stripes) - 1; i >= 0; i-- {
		e.stripes[i].mu.Unlock()
	}
}

// fanPool is the engine's bounded fan-out worker pool: GOMAXPROCS workers
// (sized once, at engine construction) reused across queries, so a range
// fan-out costs channel hand-offs instead of per-query goroutine spawns.
// On a single-CPU runtime the pool stays empty and fan-out degenerates to
// the strictly cheaper sequential merge. Workers are started lazily on the
// first parallel fan-out and then park on the empty channel for the
// engine's lifetime — a closed engine keeps serving reads, so there is
// deliberately no shutdown path.
type fanPool struct {
	size  int
	tasks chan func()
	once  sync.Once
	obs   *obs.Registry // submit-vs-inline accounting; counts pooled paths only
}

func newFanPool(o *obs.Registry) *fanPool {
	n := runtime.GOMAXPROCS(0)
	return &fanPool{size: n, tasks: make(chan func(), 4*n), obs: o}
}

// run executes fn(0..n-1), distributing across the pool's workers. When
// the queue is saturated the caller executes the task inline — the caller
// is a worker too, so a full pool degrades to sequential execution instead
// of blocking, and the pool can never deadlock on its own capacity.
func (p *fanPool) run(n int, fn func(int)) {
	if p.size <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p.start()
	rec := p.obs != nil && p.obs.Enabled()
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		t := func(i int) func() {
			return func() { defer wg.Done(); fn(i) }
		}(i)
		select {
		case p.tasks <- t:
			if rec {
				p.obs.FanSubmits.Inc(i)
			}
		default:
			if rec {
				p.obs.FanInline.Inc(i)
			}
			t()
		}
	}
	wg.Wait()
}

func (p *fanPool) start() {
	p.once.Do(func() {
		for w := 0; w < p.size; w++ {
			go func() {
				for t := range p.tasks {
					t()
				}
			}()
		}
	})
}

// submit schedules fn on a pool worker without waiting for it. On a
// single-CPU runtime, or when the queue is saturated, fn runs inline before
// submit returns — callers (scan read-ahead) must tolerate synchronous
// execution, which they do because a prefetch fill never blocks on its
// consumer: the hand-off channel always has room for the one outstanding
// batch.
func (p *fanPool) submit(fn func()) {
	if p.size <= 1 {
		fn()
		return
	}
	p.start()
	select {
	case p.tasks <- fn:
		if p.obs != nil && p.obs.Enabled() {
			p.obs.FanSubmits.Inc(0)
		}
	default:
		if p.obs != nil && p.obs.Enabled() {
			p.obs.FanInline.Inc(0)
		}
		fn()
	}
}

// monitoring reports whether any background worker wants per-operation
// monitor recording.
func (e *Engine) monitoring() bool { return e.monOn.Load() > 0 }

// Obs returns the engine's metrics registry (never nil once constructed).
// Tests use it to tighten latency sampling; normal consumers go through
// Metrics/Events.
func (e *Engine) Obs() *obs.Registry { return e.obs }

// EnableObs turns on metric recording (refcounted). Lifecycle events are
// journaled regardless.
func (e *Engine) EnableObs() { e.obs.Enable() }

// DisableObs decrements the metric-recording refcount.
func (e *Engine) DisableObs() { e.obs.Disable() }

// Metrics returns a point-in-time snapshot of every engine metric, stamped
// with the current global epoch so two snapshots diff into rates (epoch
// advances per published cross-shard move and, with a shared oracle, per
// transaction commit).
func (e *Engine) Metrics() obs.Snapshot {
	s := e.obs.Snapshot()
	s.Epoch = e.epoch.Now()
	return s
}

// Events returns journaled lifecycle events with Seq > since, oldest first.
func (e *Engine) Events(since uint64) []obs.Event { return e.obs.Events(since) }

// compHit records n staged-move compensation hits on a read path — rows a
// reader served from the registry instead of a table because a cross-shard
// move or rebalance had them staged.
func (e *Engine) compHit(stripe, n int) {
	if n > 0 && e.obs.Enabled() {
		e.obs.CompHits.Add(stripe, uint64(n))
	}
}

// New loads keys (any order) into a sharded engine. With Config.Dir set the
// engine is durable: if the directory already holds committed state New
// recovers it (keys is ignored), otherwise the keys are loaded and the
// initial state persisted; see durable.go for the recovery protocol.
func New(keys []int64, cfg Config) (*Engine, error) {
	var e *Engine
	var err error
	if cfg.Dir != "" {
		e, err = openDurable(keys, cfg)
	} else {
		e, err = newInMemory(keys, cfg)
	}
	if err != nil {
		return nil, err
	}
	e.startAdmission(cfg.Admission)
	return e, nil
}

// newInMemory is the original fully in-memory constructor.
func newInMemory(keys []int64, cfg Config) (*Engine, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("shard: empty key set")
	}
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	var part Partitioner
	if cfg.ByRange {
		part = NewRangePartitioner(keys, n)
	} else {
		part = NewHashPartitioner(n)
	}
	monCap := cfg.MonitorCap
	if monCap <= 0 {
		monCap = 8192
	}
	ep := cfg.Epoch
	if ep == nil {
		ep = txn.NewOracle()
	}
	e := &Engine{cfg: cfg.Table, epoch: ep, keyLo: keys[0], keyHi: keys[0]}
	e.initRoute(part)
	perShard := make([][]int64, part.Shards())
	for _, k := range keys {
		perShard[part.Shard(k)] = append(perShard[part.Shard(k)], k)
		if k < e.keyLo {
			e.keyLo = k
		}
		if k > e.keyHi {
			e.keyHi = k
		}
	}
	for i := 0; i < part.Shards(); i++ {
		s := &shard{idx: i, eng: e, cfg: cfg.Table, mon: newMonitor(monCap), ep: ep}
		if len(perShard[i]) > 0 {
			tbl, err := table.New(perShard[i], cfg.Table, cfg.Gen)
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
			s.tbl = tbl
		}
		e.shards = append(e.shards, s)
	}
	return e, nil
}

// Shards returns the shard count. It is invariant across rebalances — a
// rebalance re-splits boundaries among the existing shards, never changes
// their number.
func (e *Engine) Shards() int { return len(e.shards) }

// Partitioner returns the key router currently in use. On a range-
// partitioned engine a rebalance may replace it; the returned value is the
// router as of the call.
func (e *Engine) Partitioner() Partitioner { return e.loadPart() }

// Epoch returns the current global epoch. It advances exactly once per
// published cross-shard move (and, when the oracle is shared with a
// txn.Manager, once per transaction commit).
func (e *Engine) Epoch() uint64 { return e.epoch.Now() }

// shardFor routes a key to its shard under the current partitioner. Reads
// call it under the move gate (route stable for the whole query); writes go
// through mutate, which revalidates the route under the shard swap lock.
func (e *Engine) shardFor(key int64) *shard { return e.shards[e.loadPart().Shard(key)] }

// bucket maps a key to a drift-histogram bucket over the initial domain.
func (e *Engine) bucket(key int64) int {
	span := e.keyHi - e.keyLo + 1
	if span <= 0 {
		return 0
	}
	b := int(float64(key-e.keyLo) / float64(span) * driftBuckets)
	if b < 0 {
		b = 0
	}
	if b >= driftBuckets {
		b = driftBuckets - 1
	}
	return b
}

// record feeds an operation into the monitor of every shard it touches,
// under the same RouteOp rule the training split uses.
func (e *Engine) record(op workload.Op) {
	p := e.loadPart()
	owner := p.Shard(op.Key)
	workload.RouteOp(op, p.Shard, p.Span, func(s int) {
		key := op.Key
		if op.Kind == workload.Q6Update && s != owner {
			key = op.Key2 // the update lands in this shard at its new key
		}
		e.shards[s].mon.record(op, e.bucket(key))
	})
}

// ---------------------------------------------------------------------------
// Shard-local application with journaling
// ---------------------------------------------------------------------------

// routed reports whether this shard still owns j's key(s) under the current
// partitioner. It must be evaluated while holding s.mu (shared or
// exclusive): a rebalance installs a new partitioner only while holding
// every shard's swap lock exclusively, so the answer is stable for the rest
// of the lock window, and a writer that acquired the lock after an install
// is guaranteed to observe the new routing.
func (s *shard) routed(j *journalOp) bool {
	p := s.eng.loadPart()
	if p.Shard(j.key) != s.idx {
		return false
	}
	return j.kind != jUpdate || p.Shard(j.key2) == s.idx
}

// ErrReadOnly is returned by every mutation on a follower engine: a
// follower's state is the replicated image of its leader, and a local write
// would silently diverge it.
var ErrReadOnly = errors.New("shard: engine is read-only (follower)")

// mutate routes j to its owning shard and runs it there, re-routing if a
// concurrent rebalance moved the key's owner while the write waited on the
// shard lock.
func (e *Engine) mutate(j *journalOp, fn func(t *table.Table, capture bool) error) error {
	if e.readonly {
		return ErrReadOnly
	}
	for {
		if err, ok := e.shardFor(j.key).run(j, fn); ok {
			return err
		}
	}
}

// run executes a mutation against the shard's current table under the swap
// read lock, journaling it (on success) when a shadow retrain is in flight
// and WAL-logging it when the engine is durable. fn receives whether it must
// capture row identity; when it must, fn fills j.row with the payload of the
// row it touched before returning — the journal entry and WAL record are
// appended after fn succeeds, so they carry the row identity. When the shard
// is still empty, seed builds a one-row table for inserts; deletes and
// updates report errEmptyShard.
//
// run returns ok=false without executing fn when the shard no longer owns
// j's key under the current partitioner (a rebalance installed new
// boundaries while this write waited on the lock); the caller re-routes.
//
// The journaling flag only transitions under the exclusive swap lock, so it
// is stable for the whole RLock window here. While a retrain is in flight or
// a WAL is attached, apply and append happen atomically under jmu: dependent
// writes (an update another writer's delete relies on) land in the journal
// and the WAL in exactly their application order, so both shadow replay and
// crash replay preserve the live table's row contents byte-identically —
// deletes and updates carry the payload of the row the live table actually
// touched, resolving duplicate keys to the same row. When neither is active,
// writes skip jmu entirely and only contend on the table's chunk locks.
//
// The WAL fsync (group commit, per the log's policy) happens after the locks
// are released, so concurrent committers share fsyncs instead of serializing
// on one.
func (s *shard) run(j *journalOp, fn func(t *table.Table, capture bool) error) (error, bool) {
	for {
		s.mu.RLock()
		if !s.routed(j) {
			s.mu.RUnlock()
			return nil, false
		}
		if t := s.tbl; t != nil {
			var err error
			var lsn uint64
			logging := s.log != nil && !j.skipWAL
			if s.journaling || logging {
				s.jmu.Lock()
				err = fn(t, true)
				if err == nil {
					j.epoch = s.ep.Now()
					if s.journaling {
						s.journal = append(s.journal, *j)
					}
					if logging {
						lsn, _ = s.log.Append(j.record()) // sticky error surfaces in Commit
					}
				}
				s.jmu.Unlock()
			} else {
				err = fn(t, false)
			}
			s.mu.RUnlock()
			if err == nil && logging {
				if werr := s.log.Commit(lsn); werr != nil {
					return werr, true
				}
			}
			return err, true
		}
		s.mu.RUnlock()
		if j.kind == jDelete || j.kind == jUpdate {
			return errEmptyShard, true
		}
		if ok, lsn, logged := s.seed(*j); ok {
			if logged {
				if werr := s.log.Commit(lsn); werr != nil {
					return werr, true
				}
			}
			return nil, true
		}
		// Lost the creation race (or the route went stale); retry — the
		// top-of-loop route check re-routes a stale write.
	}
}

// seed creates the shard's table holding exactly j's row, WAL-logging the
// insert under the same exclusive window so no later record can precede it.
// Returns ok=false if another writer created the table first or the route
// went stale under a concurrent rebalance; logged reports whether a WAL
// record was appended (commit it after seeing ok).
func (s *shard) seed(j journalOp) (ok bool, lsn uint64, logged bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tbl != nil || !s.routed(&j) {
		return false, 0, false
	}
	tbl, err := table.NewFromRows([]int64{j.key}, [][]int32{j.row}, s.cfg)
	if err != nil {
		panic(fmt.Sprintf("shard: seeding one-row table: %v", err))
	}
	s.tbl = tbl
	if s.log != nil && !j.skipWAL {
		j.epoch = s.ep.Now()
		lsn, _ = s.log.Append(j.record())
		return true, lsn, true
	}
	return true, 0, false
}

// read runs fn against the current table under the swap read lock; fn is
// skipped (zero result) while the shard is empty.
func (s *shard) read(fn func(*table.Table)) {
	s.mu.RLock()
	if s.tbl != nil {
		fn(s.tbl)
	}
	s.mu.RUnlock()
}

// ---------------------------------------------------------------------------
// Reads: fan out across spanned shards and merge
// ---------------------------------------------------------------------------

// PointQuery returns the number of live rows with the given key (Q1).
func (e *Engine) PointQuery(key int64) int {
	tr := e.obs.OpBegin(obs.OpPointQuery, int(key))
	defer e.obs.OpEnd(obs.OpPointQuery, int(key), tr)
	if e.monitoring() {
		e.record(workload.Op{Kind: workload.Q1PointQuery, Key: key})
	}
	v, s := e.lockKey(key)
	defer e.unlockKey(s)
	return e.pointQueryAt(v, key)
}

// pointQueryAt serves a point query under a pinned snapshot (caller holds
// the stripe owning key — or every stripe, for Views): the physical count
// plus one for every staged move whose row is still visible at its old key.
func (e *Engine) pointQueryAt(v *routeSnap, key int64) int {
	n := 0
	e.shards[v.part.Shard(key)].read(func(t *table.Table) { n = t.PointQuery(key) })
	hits := 0
	v.moves.forRange(key, key, func(*pendingMove) { n++; hits++ })
	e.compHit(int(key), hits)
	return n
}

// fanOut merges fn over shards [a, b], returning the sum: the aggregate
// read path, running each spanned table's native kernel. The merge runs on
// the engine's worker pool when the runtime has CPUs to run it; on a
// single-CPU runtime a sequential merge is strictly cheaper.
func (e *Engine) fanOut(a, b int, fn func(*table.Table) int64) int64 {
	if a == b {
		var v int64
		e.shards[a].read(func(t *table.Table) { v = fn(t) })
		return v
	}
	parts := make([]int64, b-a+1)
	e.pool.run(len(parts), func(i int) {
		e.shards[a+i].read(func(t *table.Table) { parts[i] = fn(t) })
	})
	var sum int64
	for _, v := range parts {
		sum += v
	}
	return sum
}

// RangeCount counts live rows with keys in [lo, hi] (Q2).
func (e *Engine) RangeCount(lo, hi int64) int {
	if hi < lo {
		return 0
	}
	tr := e.obs.OpBegin(obs.OpRangeCount, int(lo))
	defer e.obs.OpEnd(obs.OpRangeCount, int(lo), tr)
	if e.monitoring() {
		e.record(workload.Op{Kind: workload.Q2RangeCount, Key: lo, Key2: hi})
	}
	v, a, b := e.lockSpan(lo, hi)
	defer e.unlockSpan(a, b)
	return e.rangeCountAt(v, lo, hi)
}

// rangeCountAt, rangeSumAt and multiRangeSumAt serve an aggregate under a
// pinned snapshot (caller holds the stripes covering the span): the spanned
// tables' native aggregates, plus every staged move whose row is still
// visible at its old key in range.
func (e *Engine) rangeCountAt(v *routeSnap, lo, hi int64) int {
	a, b := v.part.Span(lo, hi)
	n := int(e.fanOut(a, b, func(t *table.Table) int64 { return int64(t.RangeCount(lo, hi)) }))
	hits := 0
	v.moves.forRange(lo, hi, func(*pendingMove) { n++; hits++ })
	e.compHit(int(lo), hits)
	return n
}

// RangeSum sums the keys of live rows in [lo, hi] (Q3).
func (e *Engine) RangeSum(lo, hi int64) int64 {
	if hi < lo {
		return 0
	}
	tr := e.obs.OpBegin(obs.OpRangeSum, int(lo))
	defer e.obs.OpEnd(obs.OpRangeSum, int(lo), tr)
	if e.monitoring() {
		e.record(workload.Op{Kind: workload.Q3RangeSum, Key: lo, Key2: hi})
	}
	v, a, b := e.lockSpan(lo, hi)
	defer e.unlockSpan(a, b)
	return e.rangeSumAt(v, lo, hi)
}

func (e *Engine) rangeSumAt(v *routeSnap, lo, hi int64) int64 {
	a, b := v.part.Span(lo, hi)
	sum := e.fanOut(a, b, func(t *table.Table) int64 { return t.RangeSum(lo, hi) })
	hits := 0
	v.moves.forRange(lo, hi, func(m *pendingMove) { sum += m.old; hits++ })
	e.compHit(int(lo), hits)
	return sum
}

// MultiRangeSum runs the TPC-H-Q6-shaped query across all spanned shards.
func (e *Engine) MultiRangeSum(lo, hi int64, filters []table.PayloadFilter, sumCol int) int64 {
	if hi < lo {
		return 0
	}
	tr := e.obs.OpBegin(obs.OpMultiRange, int(lo))
	defer e.obs.OpEnd(obs.OpMultiRange, int(lo), tr)
	if e.monitoring() {
		e.record(workload.Op{Kind: workload.Q7MultiRange, Key: lo, Key2: hi})
	}
	v, a, b := e.lockSpan(lo, hi)
	defer e.unlockSpan(a, b)
	return e.multiRangeSumAt(v, lo, hi, filters, sumCol)
}

func (e *Engine) multiRangeSumAt(v *routeSnap, lo, hi int64, filters []table.PayloadFilter, sumCol int) int64 {
	a, b := v.part.Span(lo, hi)
	sum := e.fanOut(a, b, func(t *table.Table) int64 { return t.MultiRangeSum(lo, hi, filters, sumCol) })
	hits := 0
	v.moves.forRange(lo, hi, func(m *pendingMove) {
		hits++
		for _, f := range filters {
			if x := m.row[f.Col]; x < f.Lo || x > f.Hi {
				return
			}
		}
		sum += int64(m.row[sumCol])
	})
	e.compHit(int(lo), hits)
	return sum
}

// Payload returns payload column col of one row with the given key. Like
// the other reads it feeds the drift monitor (as a point access — it scans
// the same partition a Q1 of the key would), so payload-heavy workloads
// drive retraining too.
func (e *Engine) Payload(key int64, col int) (int32, bool) {
	tr := e.obs.OpBegin(obs.OpPayload, int(key))
	defer e.obs.OpEnd(obs.OpPayload, int(key), tr)
	if e.monitoring() {
		e.record(workload.Op{Kind: workload.Q1PointQuery, Key: key})
	}
	v, s := e.lockKey(key)
	defer e.unlockKey(s)
	return e.payloadAt(v, key, col)
}

func (e *Engine) payloadAt(v *routeSnap, key int64, col int) (int32, bool) {
	var val int32
	var ok bool
	e.shards[v.part.Shard(key)].read(func(t *table.Table) { val, ok = t.Payload(key, col) })
	if !ok {
		hits := 0
		v.moves.forRange(key, key, func(m *pendingMove) {
			hits++
			if !ok && col < len(m.row) {
				val, ok = m.row[col], true
			}
		})
		e.compHit(int(key), hits)
	}
	return val, ok
}

// Len returns the live row count across all shards. It pins a routing
// snapshot under the whole-fleet read gate like every other read and is
// counted in the metrics registry (OpLen); it deliberately does NOT feed
// the drift monitor — a fleet-wide row count has no key locality, so
// recording it would only dilute the access-pattern window retraining
// learns from.
func (e *Engine) Len() int {
	tr := e.obs.OpBegin(obs.OpLen, 0)
	defer e.obs.OpEnd(obs.OpLen, 0, tr)
	e.rlockAll()
	defer e.runlockAll()
	return e.lenAt(e.loadRoute())
}

func (e *Engine) lenAt(v *routeSnap) int {
	n := v.moves.len() // staged rows are live at their old key
	for _, s := range e.shards {
		s.read(func(t *table.Table) { n += t.Len() })
	}
	return n
}

// Chunks returns the total column chunk count across all shards.
//
// Read-consistency contract: Chunks holds every gate stripe shared, so the
// boundary set and row placement it observes belong to one routing
// snapshot — it can never see the half-installed state inside a rebalance
// publish window (rows parked off-table, destination tables mid-seed).
// Per-shard chunk counts are still read one shard at a time under each
// shard's swap lock, so concurrent single-shard writes and retrain swaps —
// which do not pass the move gate — may land between shard visits.
//
// Like Len, Chunks is metered (OpChunks) but does not feed the drift
// monitor: it has no key locality to learn from.
func (e *Engine) Chunks() int {
	tr := e.obs.OpBegin(obs.OpChunks, 0)
	defer e.obs.OpEnd(obs.OpChunks, 0, tr)
	e.rlockAll()
	defer e.runlockAll()
	n := 0
	for _, s := range e.shards {
		s.read(func(t *table.Table) { n += t.Chunks() })
	}
	return n
}

// View is a move-stable multi-query read handle pinned to one routing
// snapshot: while the callback of Engine.View runs, every gate stripe is
// held shared, so no cross-shard move can stage or publish and no
// rebalance can install — the epoch, the partitioner, and the staged-move
// registry the view routes through are one frozen routeSnap. Invariants
// that span several queries and depend only on move atomicity hold exactly
// (e.g. a row being moved between shards is counted exactly once by
// PointQuery(old)+PointQuery(new)). It is not a full snapshot: single-shard
// writes (Insert, Delete, same-shard UpdateKey) do not pass through the
// move gate and may land between the view's queries.
type View struct {
	e     *Engine
	v     *routeSnap
	epoch uint64
}

// View runs fn over a move-stable read handle pinned at the current epoch
// and routing snapshot. Queries must go through the View's methods; calling
// Engine methods (or nesting Views) from inside fn can deadlock against a
// queued move. Writes and single queries do not need View — every
// individual engine query pins a snapshot of its own.
func (e *Engine) View(fn func(*View)) {
	e.rlockAll()
	defer e.runlockAll()
	fn(&View{e: e, v: e.loadRoute(), epoch: e.epoch.Now()})
}

// Epoch returns the epoch the view is pinned at. No cross-shard move can
// advance it while the view is live.
func (v *View) Epoch() uint64 { return v.epoch }

// PointQuery is Engine.PointQuery under the view's snapshot. View queries
// are metered on the same per-op counters as their Engine counterparts.
func (v *View) PointQuery(key int64) int {
	tr := v.e.obs.OpBegin(obs.OpPointQuery, int(key))
	defer v.e.obs.OpEnd(obs.OpPointQuery, int(key), tr)
	return v.e.pointQueryAt(v.v, key)
}

// RangeCount is Engine.RangeCount under the view's snapshot.
func (v *View) RangeCount(lo, hi int64) int {
	if hi < lo {
		return 0
	}
	tr := v.e.obs.OpBegin(obs.OpRangeCount, int(lo))
	defer v.e.obs.OpEnd(obs.OpRangeCount, int(lo), tr)
	return v.e.rangeCountAt(v.v, lo, hi)
}

// RangeSum is Engine.RangeSum under the view's snapshot.
func (v *View) RangeSum(lo, hi int64) int64 {
	if hi < lo {
		return 0
	}
	tr := v.e.obs.OpBegin(obs.OpRangeSum, int(lo))
	defer v.e.obs.OpEnd(obs.OpRangeSum, int(lo), tr)
	return v.e.rangeSumAt(v.v, lo, hi)
}

// MultiRangeSum is Engine.MultiRangeSum under the view's snapshot.
func (v *View) MultiRangeSum(lo, hi int64, filters []table.PayloadFilter, sumCol int) int64 {
	if hi < lo {
		return 0
	}
	tr := v.e.obs.OpBegin(obs.OpMultiRange, int(lo))
	defer v.e.obs.OpEnd(obs.OpMultiRange, int(lo), tr)
	return v.e.multiRangeSumAt(v.v, lo, hi, filters, sumCol)
}

// Payload is Engine.Payload under the view's snapshot.
func (v *View) Payload(key int64, col int) (int32, bool) {
	tr := v.e.obs.OpBegin(obs.OpPayload, int(key))
	defer v.e.obs.OpEnd(obs.OpPayload, int(key), tr)
	return v.e.payloadAt(v.v, key, col)
}

// Len is Engine.Len under the view's snapshot.
func (v *View) Len() int {
	tr := v.e.obs.OpBegin(obs.OpLen, 0)
	defer v.e.obs.OpEnd(obs.OpLen, 0, tr)
	return v.e.lenAt(v.v)
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

// Insert adds a row with the given key (Q4). The signature has no error to
// return, so on a durable engine a failed WAL append/fsync is held as the
// log's sticky error and surfaces on the next Delete/UpdateKey, SyncWAL,
// Checkpoint, or Close — callers needing per-insert durability confirmation
// should follow the batch with SyncWAL. For the same reason Insert never
// sheds under admission control: it blocks until admitted (tenant lane 0).
// Use Engine.Writer for per-tenant lanes and ErrOverload-style shedding.
func (e *Engine) Insert(key int64) {
	_ = e.admit(0, false)
	_ = e.insertAdmitted(key)
}

// insertAdmitted is the write path below admission.
func (e *Engine) insertAdmitted(key int64) error {
	tr := e.obs.OpBegin(obs.OpInsert, int(key))
	defer e.obs.OpEnd(obs.OpInsert, int(key), tr)
	if e.monitoring() {
		e.record(workload.Op{Kind: workload.Q4Insert, Key: key})
	}
	return e.mutate(&journalOp{kind: jInsert, key: key},
		func(t *table.Table, _ bool) error { t.Insert(key); return nil })
}

// Delete removes one row with the given key (Q5). While a shadow retrain is
// journaling (or a WAL is attached), the deleted row's payload is captured
// for the journal/WAL record, so the replayed delete removes the same
// duplicate the live table dropped; the uncaptured fast path stays a plain
// delete with no payload copy. The operation feeds the drift monitor only
// when it succeeds. Under admission control the op is gated on tenant lane
// 0 and may return ErrOverload without having been applied.
func (e *Engine) Delete(key int64) error {
	if err := e.admit(0, true); err != nil {
		return err
	}
	return e.deleteAdmitted(key)
}

// deleteAdmitted is the write path below admission.
func (e *Engine) deleteAdmitted(key int64) error {
	// Metered per attempt (a failed delete is still a call an operator
	// wants counted); the drift monitor below keeps its success-only rule.
	tr := e.obs.OpBegin(obs.OpDelete, int(key))
	defer e.obs.OpEnd(obs.OpDelete, int(key), tr)
	j := &journalOp{kind: jDelete, key: key}
	err := e.mutate(j, func(t *table.Table, capture bool) error {
		if !capture {
			return t.Delete(key)
		}
		row, terr := t.TakeRow(key)
		j.row = row
		return terr
	})
	if err == errEmptyShard {
		return fmt.Errorf("shard: delete of absent key %d", key)
	}
	if err == nil && e.monitoring() {
		e.record(workload.Op{Kind: workload.Q5Delete, Key: key})
	}
	return err
}

// UpdateKey changes one row's key, preserving its payload (Q6). When the old
// and new keys live on different shards the move commits through the
// epoch-based cross-shard protocol (see the package comment): a concurrent
// reader observes the row on exactly one shard at all times — never on
// neither, never on both, and never with a torn payload. The operation feeds
// the drift monitor only when it succeeds. Under admission control the op
// is gated on tenant lane 0 and may return ErrOverload without having been
// applied.
func (e *Engine) UpdateKey(old, new int64) error {
	if err := e.admit(0, true); err != nil {
		return err
	}
	return e.updateKeyAdmitted(old, new)
}

// updateKeyAdmitted is the write path below admission.
func (e *Engine) updateKeyAdmitted(old, new int64) error {
	if e.readonly {
		return ErrReadOnly
	}
	tr := e.obs.OpBegin(obs.OpUpdateKey, int(old))
	defer e.obs.OpEnd(obs.OpUpdateKey, int(old), tr)
	var err error
	for {
		p := e.loadPart()
		so, sn := p.Shard(old), p.Shard(new)
		var ok bool
		if so == sn {
			j := &journalOp{kind: jUpdate, key: old, key2: new}
			err, ok = e.shards[so].run(j, func(t *table.Table, capture bool) error {
				if !capture {
					return t.UpdateKey(old, new)
				}
				row, terr := t.UpdateKeyRow(old, new)
				j.row = row
				return terr
			})
			if ok && err == errEmptyShard {
				err = fmt.Errorf("shard: update of absent key %d", old)
			}
		} else {
			err, ok = e.moveCrossShard(old, new)
		}
		if ok {
			break
		}
		// A concurrent rebalance changed the keys' routing; re-derive it.
	}
	if err == nil && e.monitoring() {
		e.record(workload.Op{Kind: workload.Q6Update, Key: old, Key2: new})
	}
	return err
}

// moveCrossShard moves one row between shards under the epoch-based commit
// protocol. Stage: take the row from the source shard and register it as a
// staged move, in one exclusive window — readers switch from the physical
// row to the registry entry atomically, still counting it at old. Publish:
// insert the row at the destination, retire the registry entry, and advance
// the global epoch, in a second exclusive window — readers switch from the
// registry entry to the physical row at new atomically. Both halves journal
// like ordinary writes, so shadow retrains of either shard replay them
// exactly. A destination-shard failure rolls the staged row back to the
// source shard and reports the error — the row is never silently lost.
//
// A concurrent Delete(old) or UpdateKey(old, ...) that lands while the row
// is staged serializes after this move: it fails with "absent key", exactly
// as it would had it run just after the publish.
//
// The source and destination shards are re-derived from the current
// partitioner inside each exclusive window (a rebalance can install new
// boundaries between them); ok=false asks the caller to retry as a
// same-shard update when a rebalance collapsed the two keys onto one shard
// before the stage window.
func (e *Engine) moveCrossShard(old, new int64) (_ error, ok bool) {
	// The take, insert, and rollback halves all set skipWAL: durability
	// logs the move as one MoveOut/MoveIn record pair at publish (below),
	// so a crash between the windows recovers the row at its old key and a
	// rolled-back move leaves no WAL trace. The halves still journal for
	// shadow retrains.
	//
	// The stage respects the rebalance install barrier: while a rebalance is
	// about to install new boundaries it drains in-flight moves and blocks
	// new stages, so the routing derived here cannot be invalidated between
	// the two windows (sleepy retries, not spins — single-CPU friendly).
	for {
		e.lockAll()
		if !e.installing {
			break
		}
		e.unlockAll()
		time.Sleep(200 * time.Microsecond)
	}
	so, sn := e.loadPart().Shard(old), e.loadPart().Shard(new)
	if so == sn {
		e.unlockAll()
		return nil, false
	}
	j := &journalOp{kind: jDelete, key: old, skipWAL: true}
	// The route is stable under the held move gate, so run cannot re-route.
	err, _ := e.shards[so].run(j, func(t *table.Table, _ bool) error {
		// The payload is needed for the move itself, journaling or not.
		row, terr := t.TakeRow(old)
		j.row = row
		return terr
	})
	if err != nil {
		e.unlockAll()
		if err == errEmptyShard {
			return fmt.Errorf("shard: update of absent key %d", old), true
		}
		return err, true
	}
	m := &pendingMove{old: old, new: new, row: j.row}
	e.addMove(m)
	e.unlockAll()
	e.obs.Event(obs.Event{Kind: obs.EvMoveStage, Shard: so, Rows: 1,
		Note: fmt.Sprintf("key %d -> %d (shard %d -> %d)", old, new, so, sn)})

	// Readers may run here: they serve the staged row from the registry.
	if e.betweenMoveWindows != nil {
		e.betweenMoveWindows()
	}

	e.lockAll()
	defer e.unlockAll()
	// Re-derive routing defensively. The install barrier means no rebalance
	// can have changed the boundaries while this move was staged, so these
	// must equal the stage-time values; if both keys ever did land on one
	// shard the publish would still degenerate to a plain insert correctly.
	p := e.loadPart()
	so, sn = p.Shard(old), p.Shard(new)
	ierr := error(nil)
	if e.failDestInsert != nil {
		ierr = e.failDestInsert(sn, new)
	}
	if ierr == nil {
		ierr, _ = e.shards[sn].run(&journalOp{kind: jInsertRow, key: new, row: m.row, skipWAL: true},
			func(t *table.Table, _ bool) error { t.InsertRow(new, m.row); return nil })
	}
	if ierr != nil {
		// Roll back: the staged row returns to the source shard; only then
		// is its registry entry retired, so it stays visible throughout. If
		// the rollback itself fails (not reachable with in-memory tables),
		// the entry is kept pinned — the row stays readable at old rather
		// than vanishing — and both errors are reported.
		rerr, _ := e.shards[so].run(&journalOp{kind: jInsertRow, key: old, row: m.row, skipWAL: true},
			func(t *table.Table, _ bool) error { t.InsertRow(old, m.row); return nil })
		if rerr != nil {
			return fmt.Errorf("shard: cross-shard update %d→%d: destination insert: %v; rollback failed, row pinned in staged registry: %w", old, new, ierr, rerr), true
		}
		e.dropMove(m)
		e.obs.Event(obs.Event{Kind: obs.EvMoveRollback, Shard: so, Rows: 1,
			Note: fmt.Sprintf("key %d -> %d: %v", old, new, ierr)})
		return fmt.Errorf("shard: cross-shard update %d→%d: destination insert: %w", old, new, ierr), true
	}
	pub := e.epoch.Advance() // the single epoch bump publishing the move
	var werr error
	if e.durable {
		werr = e.logMove(so, sn, old, new, m.row, pub)
	}
	e.dropMove(m)
	// Journal appends take only the journal's leaf mutex, so emitting under
	// the held gate stripes is within the lock-order contract.
	e.obs.Event(obs.Event{Kind: obs.EvMovePublish, Shard: sn, Epoch: pub, Rows: 1,
		Note: fmt.Sprintf("key %d -> %d (shard %d -> %d)", old, new, so, sn)})
	// A WAL error reports lost durability, not a lost move: the move is
	// committed in memory either way, matching the state a recovery from
	// the last durable record would reconcile to.
	return werr, true
}

// logMove appends the MoveOut/MoveIn record pair of a published cross-shard
// move, both stamped with the publish epoch (so recovery restores the epoch
// oracle past the bump even when the move is the last durable event), and
// commits both per the fsync policy. Caller holds every gate stripe
// exclusively (publish window), so the pair is atomic with respect to
// checkpoints and the move-ID horizon they record. Each append takes its
// shard's jmu so the
// epoch stamps stay monotonic within that shard's WAL (epoch-order replay
// relies on stable per-shard order).
func (e *Engine) logMove(so, sn int, old, new int64, row []int32, pub uint64) error {
	id := e.moveSeq.Add(1)
	src, dst := e.shards[so], e.shards[sn]
	rec := wal.Record{Epoch: pub, MoveID: id, Key: old, Key2: new, Row: row}
	src.jmu.Lock()
	rec.Kind = wal.RecMoveOut
	lsnOut, _ := src.log.Append(rec)
	src.jmu.Unlock()
	dst.jmu.Lock()
	rec.Kind = wal.RecMoveIn
	lsnIn, _ := dst.log.Append(rec)
	dst.jmu.Unlock()
	if err := src.log.Commit(lsnOut); err != nil {
		return err
	}
	return dst.log.Commit(lsnIn)
}

// ---------------------------------------------------------------------------
// Batched execution
// ---------------------------------------------------------------------------

// Execute runs one operation, returning a sink value (query result or 1/0
// success flag for writes).
func (e *Engine) Execute(op workload.Op) int64 {
	switch op.Kind {
	case workload.Q1PointQuery:
		return int64(e.PointQuery(op.Key))
	case workload.Q2RangeCount:
		return int64(e.RangeCount(op.Key, op.Key2))
	case workload.Q3RangeSum:
		return e.RangeSum(op.Key, op.Key2)
	case workload.Q7MultiRange:
		return e.MultiRangeSum(op.Key, op.Key2, nil, 0)
	case workload.Q8Scan:
		c := e.Scan(op.Key, op.Key2, ScanOptions{Limit: op.Limit})
		var n int64
		for c.Next() {
			n++
		}
		c.Close()
		return n
	case workload.Q4Insert:
		e.Insert(op.Key)
		return 1
	case workload.Q5Delete:
		if err := e.Delete(op.Key); err == nil {
			return 1
		}
		return 0
	case workload.Q6Update:
		if err := e.UpdateKey(op.Key, op.Key2); err == nil {
			return 1
		}
		return 0
	}
	return 0
}

// ExecuteAll runs the operations serially in order.
func (e *Engine) ExecuteAll(ops []workload.Op) int64 {
	var sink int64
	for _, op := range ops {
		sink += e.Execute(op)
	}
	return sink
}

// ExecuteParallel spreads the operations over the given number of worker
// goroutines regardless of shard affinity; shard and chunk locks serialize
// conflicting writes.
func (e *Engine) ExecuteParallel(ops []workload.Op, workers int) int64 {
	if workers <= 1 {
		return e.ExecuteAll(ops)
	}
	var wg sync.WaitGroup
	sums := make([]int64, workers)
	per := (len(ops) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := lo + per
		if hi > len(ops) {
			hi = len(ops)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w int, part []workload.Op) {
			defer wg.Done()
			var s int64
			for _, op := range part {
				s += e.Execute(op)
			}
			sums[w] = s
		}(w, ops[lo:hi])
	}
	wg.Wait()
	var sink int64
	for _, s := range sums {
		sink += s
	}
	return sink
}

// ApplyBatch groups the operations by owning shard and applies each group on
// its own goroutine — the batched write path. Single-shard operations keep
// their relative order within a shard; operations spanning shards (range
// reads under hash partitioning, cross-shard updates) run after the
// per-shard waves. The returned sink is order-independent for disjoint-key
// batches.
func (e *Engine) ApplyBatch(ops []workload.Op) int64 {
	n := len(e.shards)
	if n == 1 {
		return e.ExecuteAll(ops)
	}
	// The grouping is advisory: Execute re-routes each operation when it
	// runs, so a rebalance landing mid-batch costs locality, not correctness.
	p := e.loadPart()
	groups := make([][]workload.Op, n)
	var cross []workload.Op
	for _, op := range ops {
		// RouteOp yields every shard the op touches; single-shard ops
		// join that shard's parallel group, multi-shard ops go to the
		// cross wave.
		first, touched := -1, 0
		workload.RouteOp(op, p.Shard, p.Span, func(s int) {
			if touched == 0 {
				first = s
			}
			touched++
		})
		if touched == 1 {
			groups[first] = append(groups[first], op)
		} else {
			cross = append(cross, op)
		}
	}
	var wg sync.WaitGroup
	sums := make([]int64, n)
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, g []workload.Op) {
			defer wg.Done()
			var s int64
			for _, op := range g {
				s += e.Execute(op)
			}
			sums[i] = s
		}(i, g)
	}
	wg.Wait()
	var sink int64
	for _, s := range sums {
		sink += s
	}
	for _, op := range cross {
		sink += e.Execute(op)
	}
	return sink
}

// Pending is a handle to an asynchronously applied batch.
type Pending struct {
	ch chan int64
}

// Wait blocks until the batch has been applied and returns its sink value.
func (p *Pending) Wait() int64 { return <-p.ch }

// ApplyBatchAsync applies the batch on a background goroutine, returning
// immediately with a handle the caller can Wait on.
func (e *Engine) ApplyBatchAsync(ops []workload.Op) *Pending {
	p := &Pending{ch: make(chan int64, 1)}
	go func() { p.ch <- e.ApplyBatch(ops) }()
	return p
}

// ---------------------------------------------------------------------------
// Training
// ---------------------------------------------------------------------------

// Train re-partitions every shard for the sampled workload. The sample is
// split per shard (range ops feed every spanned shard, updates both
// endpoints), then the shards train concurrently, dividing the solver
// parallelism between them. Training mutates layouts in place under chunk
// locks; use the background retrainer for non-blocking re-layout.
func (e *Engine) Train(sample []workload.Op, parallelism int) error {
	if parallelism < 1 {
		parallelism = 1
	}
	n := len(e.shards)
	p := e.loadPart()
	per := workload.SplitByShard(sample, n, p.Shard, p.Span)
	conc := n
	if parallelism < conc {
		conc = parallelism
	}
	solverPar := parallelism / conc
	if solverPar < 1 {
		solverPar = 1
	}
	sem := make(chan struct{}, conc)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		s := e.shards[i]
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, s *shard) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = e.trainShard(i, s, per[i], solverPar)
		}(i, s)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	// The layouts now match the sample's distribution: rebase each trained
	// shard's drift monitor onto its slice of the sample so the retrainer
	// and the admission governor measure drift (and retrain lag) against
	// what was actually trained. Shards the sample never touched keep their
	// no-baseline state — they still count as fully drifted, preserving
	// the retrainer's first-train trigger.
	for i, s := range e.shards {
		if len(per[i]) > 0 {
			s.mon.rebaseToSample(per[i], e.bucket)
		}
	}
	// In-place training changes no logical rows, so nothing reaches the
	// WAL; checkpointing persists the learned layouts so recovery restores
	// them without re-running the solver.
	return e.Checkpoint()
}

// trainShard runs an in-place TrainLayout on one shard, serialized against
// shadow retrains (it waits for an in-flight one rather than failing).
func (e *Engine) trainShard(i int, s *shard, sample []workload.Op, parallelism int) error {
	s.layoutMu.Lock()
	defer s.layoutMu.Unlock()
	var err error
	s.read(func(t *table.Table) { err = t.TrainLayout(sample, parallelism) })
	return err
}

// LayoutSummary describes one chunk's physical layout within a shard.
type LayoutSummary struct {
	Shard      int
	Chunk      int
	Partitions int
	Sizes      []int
	Ghosts     []int
}

// Layouts reports the current physical layout of every shard's partitioned
// chunks.
func (e *Engine) Layouts() []LayoutSummary {
	var out []LayoutSummary
	for i, s := range e.shards {
		s.read(func(t *table.Table) {
			for _, l := range t.Layouts() {
				out = append(out, LayoutSummary{
					Shard:      i,
					Chunk:      l.Chunk,
					Partitions: l.Partitions,
					Sizes:      l.Sizes,
					Ghosts:     l.Ghosts,
				})
			}
		})
	}
	return out
}

// Close stops the background retrainer and rebalancer if running and, on a
// durable engine, fsyncs and closes every shard's WAL, returning the first
// failure — under SyncNone/SyncInterval this final fsync is what makes the
// latest writes durable, so the error must not be swallowed. A closed
// durable engine keeps serving reads; further writes fail their durability
// commit.
func (e *Engine) Close() error {
	e.stopAdmission()
	e.StopAutoRetrain()
	e.StopAutoRebalance()
	var first error
	if e.durable {
		for i, s := range e.shards {
			if s.log == nil {
				continue
			}
			if err := s.log.Close(); err != nil && first == nil {
				first = fmt.Errorf("shard %d: %w", i, err)
			}
		}
	}
	return first
}
