// Package table assembles the storage substrates into the multi-column,
// chunked tables that the paper's experiments run against (§6–§7): a keyed
// relation R(a0, a1..ap) whose key column a0 is stored under one of six
// layout modes, with payload columns positionally aligned through row
// movers.
//
// The six modes of §7's evaluation:
//
//	NoOrder     plain column store, insertion order
//	Sorted      fully sorted key column
//	StateOfArt  sorted key column + global delta store (the baseline)
//	Equi        equi-width range partitioning, dense
//	EquiGV      equi-width range partitioning + evenly spread ghost values
//	Casper      optimizer-chosen partitioning + Eq. 18 ghost allocation
//
// Columns are physically split into chunks (1M values each in the paper,
// §6.3/§7); every chunk is laid out and optimized independently.
package table

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"casper/internal/column"
	"casper/internal/costmodel"
	"casper/internal/delta"
	"casper/internal/freq"
	"casper/internal/ghost"
	"casper/internal/iomodel"
	"casper/internal/solver"
	"casper/internal/workload"
)

// Mode selects a column layout strategy.
type Mode int

const (
	NoOrder Mode = iota
	Sorted
	StateOfArt
	Equi
	EquiGV
	Casper
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case NoOrder:
		return "NoOrder"
	case Sorted:
		return "Sorted"
	case StateOfArt:
		return "StateOfArt"
	case Equi:
		return "Equi"
	case EquiGV:
		return "EquiGV"
	case Casper:
		return "Casper"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Modes lists all layout modes in the paper's comparison order.
func Modes() []Mode { return []Mode{Casper, EquiGV, Equi, StateOfArt, Sorted, NoOrder} }

// Config controls table construction.
type Config struct {
	Mode Mode
	// PayloadCols is the number of payload columns (the paper's narrow
	// table has 16 including the key).
	PayloadCols int
	// ChunkValues is the column chunk size (1M in the paper).
	ChunkValues int
	// BlockValues is the logical block size in values; derived from
	// Params.BlockBytes when zero.
	BlockValues int
	// GhostFrac is the ghost value budget as a fraction of the data size
	// (0.1% = 0.001 in Fig. 12).
	GhostFrac float64
	// Partitions is the per-chunk partition count for the Equi modes and
	// the partition budget for Casper ("we allow Casper to have as many
	// partitions as the equi-width partitioning schemes", §7). Zero
	// derives one partition per block.
	Partitions int
	// Params is the calibrated cost model.
	Params iomodel.CostParams
	// SolverOpts adds SLA constraints for Casper mode.
	SolverOpts solver.Options
	// MergeThreshold is the delta-store merge trigger (StateOfArt mode);
	// zero selects the package default.
	MergeThreshold int
}

func (c Config) withDefaults() Config {
	if c.Params.BlockBytes == 0 {
		c.Params = iomodel.EngineDefaults(0)
	}
	if c.BlockValues <= 0 {
		c.BlockValues = c.Params.BlockValues()
	}
	if c.ChunkValues <= 0 {
		c.ChunkValues = 1 << 20
	}
	if c.PayloadCols < 0 {
		c.PayloadCols = 0
	}
	return c
}

// store is the operation surface every layout provides.
type store interface {
	PointQuery(v int64) int
	RangeCount(lo, hi int64) int
	RangeSum(lo, hi int64) int64
	RangePositions(lo, hi int64, buf []int) []int
	Insert(v int64) int
	Delete(v int64) error
	Update(old, new int64) (int, error)
	Locate(v int64) (int, bool)
	Value(pos int) int64
	Len() int
}

// payloadMover mirrors key-column row movements into the payload columns.
type payloadMover struct {
	cols [][]int32
}

func (m *payloadMover) Move(dst, src int) {
	for _, c := range m.cols {
		c[dst] = c[src]
	}
}

func (m *payloadMover) MoveRange(dst, src, n int) {
	for _, c := range m.cols {
		copy(c[dst:dst+n], c[src:src+n])
	}
}

func (m *payloadMover) Swap(a, b int) {
	for _, c := range m.cols {
		c[a], c[b] = c[b], c[a]
	}
}

func (m *payloadMover) Grow(n int) {
	for i, c := range m.cols {
		for len(c) < n {
			c = append(c, 0)
		}
		m.cols[i] = c
	}
}

func (m *payloadMover) Reorder(perm []int) {
	for i, c := range m.cols {
		next := make([]int32, len(perm))
		for j, old := range perm {
			next[j] = c[old]
		}
		m.cols[i] = next
	}
}

// chunk is one independently laid-out column chunk plus its payload columns.
type chunk struct {
	mu    sync.RWMutex
	store store
	mover *payloadMover
	// casperCol is non-nil when store is a *column.Column (Equi/EquiGV/
	// Casper modes); used for layout introspection and rebuilds.
	casperCol *column.Column
	lowerKey  int64 // smallest key routed to this chunk
	// ver counts mutations (bumped under mu.Lock whenever live rows or
	// physical layout change), letting ScanIter detect between batches
	// whether its captured positions are still valid.
	ver uint64
	// trainedBlocks/trainedGhosts record the layout TrainLayout last
	// applied to this chunk (partition widths in blocks and the ghost
	// allocation), so checkpoints can persist the learned layout and
	// recovery can restore it without re-running the solver. Nil until
	// the chunk has been trained.
	trainedBlocks []int
	trainedGhosts []int
}

// Table is a keyed relation under one layout mode.
type Table struct {
	cfg    Config
	chunks []*chunk
	// chunkLower[i] is the lower key bound of chunk i (chunkLower[0]
	// conceptually −∞).
	chunkLower []int64
}

// PayloadGen derives payload column values from a key; the default fills
// column c of row with key k with int32(k + c).
type PayloadGen func(key int64, col int) int32

// DefaultPayload is the payload generator used when none is supplied.
func DefaultPayload(key int64, col int) int32 { return int32(key) + int32(col) }

// New builds a table over keys (any order) under cfg, generating payload
// rows with gen (nil = DefaultPayload).
func New(keys []int64, cfg Config, gen PayloadGen) (*Table, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("table: empty key set")
	}
	if gen == nil {
		gen = DefaultPayload
	}
	sorted := make([]int64, len(keys))
	copy(sorted, keys)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return build(sorted, cfg, func(ord, col int) int32 { return gen(sorted[ord], col) })
}

// NewFromRows builds a table over already-sorted keys with explicit payload
// rows (rows[i] holds the payload columns of sortedKeys[i]). It is the
// constructor behind shadow-copy rebuilds: Snapshot output feeds straight
// into it, preserving payloads that no generator could re-derive (rows moved
// by key updates).
func NewFromRows(sortedKeys []int64, rows [][]int32, cfg Config) (*Table, error) {
	if len(sortedKeys) == 0 {
		return nil, fmt.Errorf("table: empty key set")
	}
	if len(rows) != len(sortedKeys) {
		return nil, fmt.Errorf("table: %d rows for %d keys", len(rows), len(sortedKeys))
	}
	for i := 1; i < len(sortedKeys); i++ {
		if sortedKeys[i] < sortedKeys[i-1] {
			return nil, fmt.Errorf("table: NewFromRows keys not sorted at %d", i)
		}
	}
	return build(sortedKeys, cfg, func(ord, col int) int32 {
		if col < len(rows[ord]) {
			return rows[ord][col]
		}
		return DefaultPayload(sortedKeys[ord], col)
	})
}

// build chunks sorted keys and loads payloads through rowAt, which maps a
// global sorted ordinal and column to the payload value.
func build(sorted []int64, cfg Config, rowAt func(ord, col int) int32) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{cfg: cfg}
	for lo := 0; lo < len(sorted); lo += cfg.ChunkValues {
		hi := lo + cfg.ChunkValues
		if hi > len(sorted) {
			hi = len(sorted)
		}
		// Keep duplicate runs within one chunk.
		for hi < len(sorted) && hi > 0 && sorted[hi] == sorted[hi-1] {
			hi++
		}
		base := lo
		ck, err := newChunk(sorted[lo:hi], cfg, func(ord, col int) int32 { return rowAt(base+ord, col) })
		if err != nil {
			return nil, err
		}
		t.chunks = append(t.chunks, ck)
		t.chunkLower = append(t.chunkLower, sorted[lo])
		if hi >= len(sorted) {
			break
		}
		lo = hi - cfg.ChunkValues // loop adds ChunkValues back
	}
	return t, nil
}

// newChunk builds one chunk under the table's mode; rowAt maps a chunk-local
// sorted ordinal and column to the payload value.
func newChunk(sortedKeys []int64, cfg Config, rowAt func(ord, col int) int32) (*chunk, error) {
	mover := &payloadMover{cols: make([][]int32, cfg.PayloadCols)}
	ck := &chunk{mover: mover, lowerKey: sortedKeys[0]}

	loadPayload := func(posOf func(ord int) int) {
		for ord := range sortedKeys {
			pos := posOf(ord)
			for c := 0; c < cfg.PayloadCols; c++ {
				mover.cols[c][pos] = rowAt(ord, c)
			}
		}
	}

	switch cfg.Mode {
	case NoOrder:
		h := delta.NewHeap(sortedKeys, mover)
		ck.store = h
		loadPayload(func(ord int) int { return ord })
	case Sorted:
		s := delta.NewSorted(sortedKeys, mover)
		ck.store = s
		loadPayload(func(ord int) int { return ord })
	case StateOfArt:
		d := delta.NewDelta(sortedKeys, cfg.MergeThreshold, mover)
		ck.store = d
		loadPayload(func(ord int) int { return ord })
	case Equi, EquiGV, Casper:
		n := len(sortedKeys)
		nb := (n + cfg.BlockValues - 1) / cfg.BlockValues
		k := cfg.Partitions
		if k <= 0 || k > nb {
			k = nb
		}
		layout := costmodel.EquiWidth(nb, k)
		var ghosts []int
		mode := column.Dense
		if cfg.Mode == EquiGV {
			ghosts = ghost.Even(k, ghost.Budget(n, cfg.GhostFrac))
			mode = column.Ghost
		}
		// Casper starts from the equi layout; TrainLayout re-partitions.
		col, err := column.NewFromSorted(sortedKeys, column.Config{
			Layout:      layout,
			BlockValues: cfg.BlockValues,
			Ghosts:      ghosts,
			Mode:        mode,
			Mover:       mover,
		})
		if err != nil {
			return nil, err
		}
		ck.store = col
		ck.casperCol = col
		positions := make([]int, 0, n)
		col.PhysicalPositions(func(ord, pos int) { positions = append(positions, pos) })
		loadPayload(func(ord int) int { return positions[ord] })
	default:
		return nil, fmt.Errorf("table: unknown mode %v", cfg.Mode)
	}
	return ck, nil
}

// Mode returns the table's layout mode.
func (t *Table) Mode() Mode { return t.cfg.Mode }

// Chunks returns the chunk count.
func (t *Table) Chunks() int { return len(t.chunks) }

// Len returns the live row count.
func (t *Table) Len() int {
	n := 0
	for _, ck := range t.chunks {
		ck.mu.RLock()
		n += ck.store.Len()
		ck.mu.RUnlock()
	}
	return n
}

// chunkFor routes a key to its chunk.
func (t *Table) chunkFor(v int64) *chunk {
	i := sort.Search(len(t.chunkLower), func(i int) bool { return t.chunkLower[i] > v })
	if i == 0 {
		return t.chunks[0]
	}
	return t.chunks[i-1]
}

// chunkRange returns the chunk ordinals spanned by [lo, hi].
func (t *Table) chunkRange(lo, hi int64) (int, int) {
	a := sort.Search(len(t.chunkLower), func(i int) bool { return t.chunkLower[i] > lo })
	b := sort.Search(len(t.chunkLower), func(i int) bool { return t.chunkLower[i] > hi })
	if a > 0 {
		a--
	}
	if b > 0 {
		b--
	}
	return a, b
}

// PointQuery executes Q1: the number of live rows with key v.
func (t *Table) PointQuery(v int64) int {
	ck := t.chunkFor(v)
	ck.mu.RLock()
	defer ck.mu.RUnlock()
	return ck.store.PointQuery(v)
}

// RangeCount executes Q2 over [lo, hi].
func (t *Table) RangeCount(lo, hi int64) int {
	if hi < lo {
		return 0
	}
	a, b := t.chunkRange(lo, hi)
	n := 0
	for i := a; i <= b; i++ {
		ck := t.chunks[i]
		ck.mu.RLock()
		n += ck.store.RangeCount(lo, hi)
		ck.mu.RUnlock()
	}
	return n
}

// RangeSum executes Q3 over [lo, hi], summing the key column over the
// selected rows.
func (t *Table) RangeSum(lo, hi int64) int64 {
	if hi < lo {
		return 0
	}
	a, b := t.chunkRange(lo, hi)
	var s int64
	for i := a; i <= b; i++ {
		ck := t.chunks[i]
		ck.mu.RLock()
		s += ck.store.RangeSum(lo, hi)
		ck.mu.RUnlock()
	}
	return s
}

// PayloadFilter is a conjunctive predicate on one payload column.
type PayloadFilter struct {
	Col    int
	Lo, Hi int32
}

// MultiRangeSum executes a TPC-H-Q6-shaped query: select rows with key in
// [lo, hi] whose payload columns pass all filters, returning the sum of
// payload column sumCol over qualifying rows (Fig. 1's range query). A sum
// is order-free, so each chunk tests the filters straight on its payload
// columns at the unsorted qualifying positions: no sort, no row copy.
func (t *Table) MultiRangeSum(lo, hi int64, filters []PayloadFilter, sumCol int) int64 {
	if hi < lo {
		return 0
	}
	bp := posBufPool.Get().(*[]int)
	a, b := t.chunkRange(lo, hi)
	var sum int64
	for i := a; i <= b; i++ {
		var s int64
		s, *bp = t.chunks[i].multiRangeSum(lo, hi, filters, sumCol, (*bp)[:0])
		sum += s
	}
	posBufPool.Put(bp)
	return sum
}

var posBufPool = sync.Pool{New: func() any { return new([]int) }}

// multiRangeSum is MultiRangeSum over one chunk, collecting positions into
// buf (returned for reuse). Column slices are indexed only for positions
// that qualify, so an out-of-range sumCol or filter column panics only when
// a row would read it — and the deferred unlock keeps the chunk usable if
// such a panic is recovered.
func (ck *chunk) multiRangeSum(lo, hi int64, filters []PayloadFilter, sumCol int, buf []int) (int64, []int) {
	ck.mu.RLock()
	defer ck.mu.RUnlock()
	buf = ck.store.RangePositions(lo, hi, buf)
	cols := ck.mover.cols
	var sum int64
posLoop:
	for _, p := range buf {
		for _, f := range filters {
			if x := cols[f.Col][p]; x < f.Lo || x > f.Hi {
				continue posLoop
			}
		}
		sum += int64(cols[sumCol][p])
	}
	return sum, buf
}

// Insert executes Q4, generating the payload row with gen semantics of
// construction time (DefaultPayload).
func (t *Table) Insert(key int64) {
	ck := t.chunkFor(key)
	ck.mu.Lock()
	ck.ver++
	pos := ck.store.Insert(key)
	for c := range ck.mover.cols {
		ck.mover.cols[c][pos] = DefaultPayload(key, c)
	}
	ck.mu.Unlock()
}

// Delete executes Q5. Missing keys are a no-op that still pays the lookup.
func (t *Table) Delete(key int64) error {
	ck := t.chunkFor(key)
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.ver++
	return ck.store.Delete(key)
}

// UpdateKey executes Q6: changes a row's key from old to new, preserving
// its payload. Cross-chunk updates are a delete+insert pair carrying the
// payload across.
func (t *Table) UpdateKey(old, new int64) error {
	_, err := t.UpdateKeyRow(old, new)
	return err
}

// UpdateKeyRow is UpdateKey returning a copy of the moved row's payload, so
// callers can journal the move with row identity (with duplicate keys the
// payload pins which duplicate moved).
func (t *Table) UpdateKeyRow(old, new int64) ([]int32, error) {
	src := t.chunkFor(old)
	dst := t.chunkFor(new)
	if src == dst {
		src.mu.Lock()
		defer src.mu.Unlock()
		pos, ok := src.store.Locate(old)
		if !ok {
			return nil, fmt.Errorf("table: %w: %d", column.ErrNotFound, old)
		}
		src.ver++
		saved := src.payloadAt(pos)
		newPos, err := src.store.Update(old, new)
		if err != nil {
			return nil, err
		}
		src.setPayload(newPos, saved)
		return saved, nil
	}
	// Cross-chunk: lock in address order to avoid deadlock.
	first, second := src, dst
	if t.chunkOrdinal(dst) < t.chunkOrdinal(src) {
		first, second = dst, src
	}
	first.mu.Lock()
	defer first.mu.Unlock()
	second.mu.Lock()
	defer second.mu.Unlock()
	pos, ok := src.store.Locate(old)
	if !ok {
		return nil, fmt.Errorf("table: %w: %d", column.ErrNotFound, old)
	}
	src.ver++
	dst.ver++
	saved := src.payloadAt(pos)
	if err := src.store.Delete(old); err != nil {
		return nil, err
	}
	newPos := dst.store.Insert(new)
	dst.setPayload(newPos, saved)
	return saved, nil
}

func (t *Table) chunkOrdinal(ck *chunk) int {
	for i, c := range t.chunks {
		if c == ck {
			return i
		}
	}
	return -1
}

func (ck *chunk) payloadAt(pos int) []int32 {
	out := make([]int32, len(ck.mover.cols))
	for c := range ck.mover.cols {
		out[c] = ck.mover.cols[c][pos]
	}
	return out
}

func (ck *chunk) setPayload(pos int, row []int32) {
	for c := range ck.mover.cols {
		ck.mover.cols[c][pos] = row[c]
	}
}

// InsertRow executes Q4 with an explicit payload row instead of the default
// generator — the insert half of a cross-table key move.
func (t *Table) InsertRow(key int64, row []int32) {
	ck := t.chunkFor(key)
	ck.mu.Lock()
	ck.ver++
	pos := ck.store.Insert(key)
	for c := range ck.mover.cols {
		if c < len(row) {
			ck.mover.cols[c][pos] = row[c]
		} else {
			ck.mover.cols[c][pos] = DefaultPayload(key, c)
		}
	}
	ck.mu.Unlock()
}

// TakeRow deletes one row with the given key and returns its payload — the
// delete half of a cross-table key move.
func (t *Table) TakeRow(key int64) ([]int32, error) {
	ck := t.chunkFor(key)
	ck.mu.Lock()
	defer ck.mu.Unlock()
	pos, ok := ck.store.Locate(key)
	if !ok {
		return nil, fmt.Errorf("table: %w: %d", column.ErrNotFound, key)
	}
	ck.ver++
	row := ck.payloadAt(pos)
	if err := ck.store.Delete(key); err != nil {
		return nil, err
	}
	return row, nil
}

// DeleteRowExact removes the live row with the given key whose payload is
// byte-identical to row, selecting among duplicate keys by payload. It backs
// row-identity journal replay: a delete journaled during a shadow retrain
// carries the payload the live table actually dropped, and replaying it
// through DeleteRowExact drops the same duplicate on the shadow, keeping the
// two byte-identical. Non-matching duplicates taken while searching are
// reinserted, preserving the row multiset.
func (t *Table) DeleteRowExact(key int64, row []int32) error {
	var stash [][]int32
	defer func() {
		for _, r := range stash {
			t.InsertRow(key, r)
		}
	}()
	for {
		got, err := t.TakeRow(key)
		if err != nil {
			return err
		}
		if rowsEqual(got, row) {
			return nil
		}
		stash = append(stash, got)
	}
}

func rowsEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Snapshot returns every live row — keys ascending, payload rows aligned —
// in the form NewFromRows accepts.
//
// Consistency contract: Snapshot takes chunk read locks one at a time, so it
// observes each chunk atomically — a row is never torn, and a single-chunk
// write is either fully present or fully absent — but NOT the table as a
// whole: a writer landing between two chunk visits makes the result a state
// the table never passed through (e.g. a cross-chunk UpdateKey can appear in
// neither or both chunks). Callers needing a table-consistent cut must
// serialize writers themselves for the duration of the call: the sharded
// engine does this by holding the shard's exclusive swap lock (and, for
// recovery checkpoints, cutting under the engine move gate so the snapshot
// sits at a single epoch with no cross-shard move half-applied).
func (t *Table) Snapshot() ([]int64, [][]int32) {
	it := t.ScanRange(math.MinInt64, math.MaxInt64)
	defer it.Close()
	buf := getRowBuf()
	defer putRowBuf(buf)
	var keys []int64
	var rows [][]int32
	for it.NextBatch(buf, DefaultScanBatch) {
		keys = append(keys, buf.Keys...)
		for _, r := range buf.Rows {
			rows = append(rows, append([]int32(nil), r...))
		}
	}
	return keys, rows
}

// keyAt returns the key at physical position pos; caller holds the chunk
// lock.
func (ck *chunk) keyAt(pos int) int64 {
	if ck.casperCol != nil {
		return ck.casperCol.Value(pos)
	}
	return ck.store.Value(pos)
}

// Keys returns every live key (ascending, duplicates included) without
// copying payload rows — the cheap form of Snapshot for callers that only
// plan by key, such as the shard rebalancer scanning for rows whose owner
// changes under a proposed boundary set. The consistency contract is
// Snapshot's: per-chunk atomicity only, unless the caller serializes
// writers.
func (t *Table) Keys() []int64 {
	return t.KeysInRange(math.MinInt64, math.MaxInt64)
}

// KeysInRange returns the live keys in [lo, hi] (ascending, duplicates
// included), touching only the chunks overlapping the range — the bounded
// form of Keys for callers that plan by key intervals, such as the shard
// rebalancer staging and rescanning the ownership-delta intervals of a
// boundary change instead of walking every live key. The consistency
// contract is Snapshot's: per-chunk atomicity only, unless the caller
// serializes writers.
func (t *Table) KeysInRange(lo, hi int64) []int64 {
	if hi < lo {
		return nil
	}
	it := t.ScanRangeKeys(lo, hi)
	defer it.Close()
	buf := getRowBuf()
	defer putRowBuf(buf)
	var keys []int64
	for it.NextBatch(buf, DefaultScanBatch) {
		keys = append(keys, buf.Keys...)
	}
	return keys
}

// Payload returns payload column col at physical position pos of the chunk
// owning key; test helper.
func (t *Table) Payload(key int64, col int) (int32, bool) {
	ck := t.chunkFor(key)
	ck.mu.RLock()
	defer ck.mu.RUnlock()
	pos, ok := ck.store.Locate(key)
	if !ok {
		return 0, false
	}
	return ck.mover.cols[col][pos], true
}

// Execute runs one benchmark operation, returning a result sink value (to
// defeat dead-code elimination in benchmarks).
func (t *Table) Execute(op workload.Op) int64 {
	switch op.Kind {
	case workload.Q1PointQuery:
		return int64(t.PointQuery(op.Key))
	case workload.Q2RangeCount:
		return int64(t.RangeCount(op.Key, op.Key2))
	case workload.Q3RangeSum:
		return t.RangeSum(op.Key, op.Key2)
	case workload.Q4Insert:
		t.Insert(op.Key)
		return 1
	case workload.Q5Delete:
		if err := t.Delete(op.Key); err == nil {
			return 1
		}
		return 0
	case workload.Q6Update:
		if err := t.UpdateKey(op.Key, op.Key2); err == nil {
			return 1
		}
		return 0
	}
	return 0
}

// ExecuteAll runs every operation serially.
func (t *Table) ExecuteAll(ops []workload.Op) int64 {
	var sink int64
	for _, op := range ops {
		sink += t.Execute(op)
	}
	return sink
}

// ExecuteParallel spreads operations over workers goroutines; chunk-level
// locks serialize conflicting writes (§6: "column layouts create regions of
// the data that can be processed in parallel").
func (t *Table) ExecuteParallel(ops []workload.Op, workers int) int64 {
	if workers <= 1 {
		return t.ExecuteAll(ops)
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
				s += t.Execute(op)
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

// TrainLayout re-partitions every chunk for the sampled workload (Casper
// mode): it builds a per-chunk Frequency Model, solves the layout problem
// (in parallel across chunks, §6.3), allocates the ghost budget per Eq. 18,
// and rebuilds the chunks. Non-Casper tables return an error.
func (t *Table) TrainLayout(sample []workload.Op, parallelism int) error {
	if t.cfg.Mode != Casper {
		return fmt.Errorf("table: TrainLayout requires Casper mode, have %v", t.cfg.Mode)
	}
	fops := workload.ToFreqOps(sample)

	// Partition the sample per chunk.
	perChunk := make([][]freq.Op, len(t.chunks))
	for _, op := range fops {
		i := t.ordinalFor(op.Key)
		perChunk[i] = append(perChunk[i], op)
		if op.Kind == freq.OpRangeQuery || op.Kind == freq.OpUpdate {
			if j := t.ordinalFor(op.Key2); j != i {
				// Ops spanning chunks contribute to both.
				perChunk[j] = append(perChunk[j], op)
			}
		}
	}

	type job struct {
		i     int
		fm    *freq.Model
		terms *costmodel.Terms
		keys  []int64
	}
	var jobs []job
	var termsList []*costmodel.Terms
	for i, ck := range t.chunks {
		keys := snapshotSorted(ck)
		if len(keys) == 0 {
			continue // fully deleted chunk: nothing to lay out
		}
		fm, _ := freq.FromSample(keys, t.cfg.BlockValues, perChunk[i])
		// The optimizer prices the chunk as it will actually run: with a
		// ghost budget absorbing inserts/updates, only the residual
		// fraction pays ripple costs (§4.6). Eq. 18 allocation below still
		// uses the raw model.
		optView := fm
		if t.cfg.GhostFrac > 0 {
			optView = fm.GhostAware(float64(ghost.Budget(len(keys), t.cfg.GhostFrac)))
		}
		terms := costmodel.Compute(optView, t.cfg.Params)
		jobs = append(jobs, job{i: i, fm: fm, terms: terms, keys: keys})
		termsList = append(termsList, terms)
	}

	opts := t.cfg.SolverOpts
	if t.cfg.Partitions > 0 && (opts.MaxPartitions == 0 || t.cfg.Partitions < opts.MaxPartitions) {
		// Fairness budget of §7 ("as many partitions as the equi-width
		// schemes") composes with any SLA-derived cap by taking the min.
		opts.MaxPartitions = t.cfg.Partitions
	}
	results := solver.OptimizeChunks(termsList, opts, parallelism)
	for ji, r := range results {
		if r.Err != nil {
			return fmt.Errorf("table: chunk %d: %w", jobs[ji].i, r.Err)
		}
	}
	for ji, j := range jobs {
		budget := ghost.Budget(len(j.keys), t.cfg.GhostFrac)
		alloc := ghost.Allocate(j.fm, results[ji].Result.Layout, budget)
		if err := t.rebuildChunk(j.i, j.keys, results[ji].Result.Layout, alloc); err != nil {
			return err
		}
	}
	return nil
}

func (t *Table) ordinalFor(v int64) int {
	i := sort.Search(len(t.chunkLower), func(i int) bool { return t.chunkLower[i] > v })
	if i == 0 {
		return 0
	}
	return i - 1
}

// snapshotSorted returns the chunk's live keys sorted.
func snapshotSorted(ck *chunk) []int64 {
	ck.mu.RLock()
	defer ck.mu.RUnlock()
	if ck.casperCol != nil {
		return ck.casperCol.SortedSnapshot()
	}
	n := ck.store.Len()
	out := make([]int64, 0, n)
	// Full range covers everything representable.
	var buf []int
	buf = ck.store.RangePositions(math.MinInt64, math.MaxInt64, buf)
	for _, pos := range buf {
		out = append(out, ck.store.Value(pos))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rebuildChunk replaces chunk i's storage with a freshly partitioned column
// and reloads payload rows.
func (t *Table) rebuildChunk(i int, sortedKeys []int64, layout costmodel.Layout, ghosts []int) error {
	ck := t.chunks[i]
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.ver++

	// Save payload rows in key-sorted order.
	old := ck.casperCol
	saved := make([][]int32, 0, len(sortedKeys))
	if old != nil {
		// Walk old physical order; pair with keys.
		type kv struct {
			key int64
			row []int32
		}
		rows := make([]kv, 0, old.Len())
		old.PhysicalPositions(func(ord, pos int) {
			rows = append(rows, kv{old.Value(pos), ck.payloadAt(pos)})
		})
		sort.SliceStable(rows, func(a, b int) bool { return rows[a].key < rows[b].key })
		for _, r := range rows {
			saved = append(saved, r.row)
		}
	}

	mode := column.Dense
	for _, g := range ghosts {
		if g > 0 {
			mode = column.Ghost
			break
		}
	}
	mover := &payloadMover{cols: make([][]int32, t.cfg.PayloadCols)}
	col, err := column.NewFromSorted(sortedKeys, column.Config{
		Layout:      layout,
		BlockValues: t.cfg.BlockValues,
		Ghosts:      ghosts,
		Mode:        mode,
		Mover:       mover,
	})
	if err != nil {
		return fmt.Errorf("table: rebuilding chunk %d: %w", i, err)
	}
	col.PhysicalPositions(func(ord, pos int) {
		for c := 0; c < t.cfg.PayloadCols; c++ {
			if ord < len(saved) {
				mover.cols[c][pos] = saved[ord][c]
			} else {
				mover.cols[c][pos] = DefaultPayload(sortedKeys[ord], c)
			}
		}
	})
	ck.store = col
	ck.casperCol = col
	ck.mover = mover
	ck.trainedBlocks = append([]int(nil), layout.Sizes...)
	ck.trainedGhosts = append([]int(nil), ghosts...)
	return nil
}

// ChunkLayout captures one chunk's applied trained layout for persistence:
// partition widths in blocks plus the ghost allocation, exactly as last
// handed to rebuildChunk. Trained is false for chunks still on their
// construction-time layout.
type ChunkLayout struct {
	Trained bool
	Blocks  []int
	Ghosts  []int
}

// ChunkLayouts returns each chunk's applied trained layout (Trained=false
// entries for untrained chunks), in chunk order. Feed the result back into
// RestoreLayouts after rebuilding the table from a Snapshot to restore the
// learned partitioning without re-running the solver.
func (t *Table) ChunkLayouts() []ChunkLayout {
	out := make([]ChunkLayout, len(t.chunks))
	for i, ck := range t.chunks {
		ck.mu.RLock()
		if ck.trainedBlocks != nil {
			out[i] = ChunkLayout{
				Trained: true,
				Blocks:  append([]int(nil), ck.trainedBlocks...),
				Ghosts:  append([]int(nil), ck.trainedGhosts...),
			}
		}
		ck.mu.RUnlock()
	}
	return out
}

// RestoreLayouts re-applies previously captured trained layouts to a table
// rebuilt from the same snapshot the layouts were captured with, chunk by
// chunk — the recovery-side counterpart of ChunkLayouts. Entries beyond the
// current chunk count and untrained entries are skipped. Only meaningful in
// Casper mode; other modes ignore the call.
func (t *Table) RestoreLayouts(specs []ChunkLayout) error {
	if t.cfg.Mode != Casper {
		return nil
	}
	for i, spec := range specs {
		if !spec.Trained || i >= len(t.chunks) {
			continue
		}
		keys := snapshotSorted(t.chunks[i])
		if len(keys) == 0 {
			continue
		}
		if err := t.rebuildChunk(i, keys, costmodel.Layout{Sizes: spec.Blocks}, spec.Ghosts); err != nil {
			return fmt.Errorf("table: restoring chunk %d layout: %w", i, err)
		}
	}
	return nil
}

// LayoutSummary describes one chunk's current layout.
type LayoutSummary struct {
	Chunk      int
	Partitions int
	Sizes      []int
	Ghosts     []int
}

// Layouts reports the partitioned chunks' layouts (empty for baseline
// modes).
func (t *Table) Layouts() []LayoutSummary {
	var out []LayoutSummary
	for i, ck := range t.chunks {
		ck.mu.RLock()
		if ck.casperCol != nil {
			out = append(out, LayoutSummary{
				Chunk:      i,
				Partitions: ck.casperCol.Partitions(),
				Sizes:      ck.casperCol.PartitionSizes(),
				Ghosts:     ck.casperCol.GhostSlots(),
			})
		}
		ck.mu.RUnlock()
	}
	return out
}
