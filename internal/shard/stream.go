// Streaming read path: per-shard chunk-bounded scans feeding a k-way
// loser-tree merge, consumed through a Cursor (paginated, LIMIT,
// resumable). Aggregates do not stream; they fan out to the tables' native
// kernels (shard.go). See the package comment's lock-order section for the
// scan locking contract; the short version is that a streaming scan holds
// its gate stripe and shard lock only while filling one batch, never across
// consumer yields.
package shard

import (
	"fmt"
	"sync"

	"casper/internal/obs"
	"casper/internal/table"
	"casper/internal/workload"
)

// sourceBuf is one filled batch of a shardSource: the physical rows pulled
// from the table iterator (rb) plus, when staged moves compensate into the
// batch window, the merged key/row sequence in mk/mr. keys/rows are views
// over whichever of the two backs this batch; done marks the final batch,
// and stale marks a cursor-mode fill that found a rebalance install (it
// carries no rows and is final). run is the prefetch task filling this
// buffer, built once per pooled source so scheduling a fill allocates
// nothing.
type sourceBuf struct {
	rb    table.RowBuf
	mk    []int64
	mr    [][]int32
	keys  []int64
	rows  [][]int32
	done  bool
	stale bool
	run   func()
}

// shardSource streams one shard's live rows with keys in [cursor, hi],
// ascending, batch by batch. Two modes:
//
//   - pinned (pinned != nil): the caller holds the gate stripes covering
//     this shard (a View) and the snapshot is frozen — fill touches no
//     stripe and compensates from the pinned snapshot's move index.
//   - cursor (pinned == nil): fill acquires this shard's gate stripe shared
//     for the duration of one batch only, releasing it before the consumer
//     sees the rows, and adopts the routing snapshot current at each fill —
//     staged moves landing mid-scan are observed at the next batch
//     boundary. A fill that finds a partitioner other than part (a
//     rebalance install since the cursor opened) yields a stale batch
//     instead of rows: the shard's key ownership changed under the sources
//     already scanned, so the cursor reopens every source under the new
//     bounds.
//
// Batches end at key boundaries (the table iterator never splits a
// duplicate run), so the resume cursor is always lastKey+1 and a batch's
// staged-move compensation window (cursor, upTo] tiles the scanned range
// exactly once per snapshot. The batch that exhausts the table iterator
// widens its window to hi and is final, so a short range costs one fill.
//
// Sources are recycled through sourcePool: a pooled source keeps its batch
// arenas, merge and move scratch, hand-off channel and fill tasks.
type shardSource struct {
	e      *Engine
	si     int
	hi     int64
	cursor int64
	pinned *routeSnap
	part   Partitioner // the partitioner the sources were opened under
	batch  int
	stale  *bool // the owning cursor's stale flag, set when a stale batch is reached

	it      *table.ScanIter
	tbl     *table.Table
	srcDone bool

	// Read-ahead state: two batch buffers cycled through a capacity-1
	// channel. Exactly one fill is outstanding at a time, so fills are
	// serialized and the channel hand-off provides the happens-before edge
	// for the buffer contents.
	bufs    [2]sourceBuf
	pre     chan *sourceBuf
	pending bool
	cur     *sourceBuf
	curI    int

	// scratch reused across fills
	moveK []int64
	moveR [][]int32
}

var sourcePool = sync.Pool{New: func() any {
	s := &shardSource{pre: make(chan *sourceBuf, 1)}
	for i := range s.bufs {
		b := &s.bufs[i]
		b.run = func() {
			s.fill(b)
			s.pre <- b
		}
	}
	return s
}}

// fill produces the next batch into b. At most one fill per source runs at
// a time: prefetch serializes through the hand-off channel.
func (s *shardSource) fill(b *sourceBuf) {
	b.keys, b.rows, b.done, b.stale = nil, nil, false, false
	if s.srcDone {
		b.done = true
		return
	}
	v := s.pinned
	if v == nil {
		st := &s.e.stripes[s.si]
		st.mu.RLock()
		defer st.mu.RUnlock()
		v = s.e.route.Load()
		if v.part != s.part {
			s.srcDone = true
			b.done, b.stale = true, true
			return
		}
	}
	sh := s.e.shards[s.si]
	tableDone := true
	sh.mu.RLock()
	if t := sh.tbl; t != nil {
		if t != s.tbl {
			// First fill, or a shadow retrain swapped the table between
			// batches: the journal-replayed replacement holds the same
			// logical rows, so restarting an iterator at the resume cursor
			// continues the scan exactly.
			if s.it != nil {
				s.it.Close()
			}
			s.it = t.ScanRange(s.cursor, s.hi)
			s.tbl = t
		}
		tableDone = !s.it.NextBatch(&b.rb, s.batch) || s.it.Done()
	}
	sh.mu.RUnlock()
	upTo := s.hi
	if !tableDone {
		upTo = b.rb.Keys[len(b.rb.Keys)-1]
	}
	s.moveK, s.moveR = s.moveK[:0], s.moveR[:0]
	// Staged moves whose rows are still visible at their old key on this
	// shard, within this batch's window. Entries are claimed by the
	// snapshot's own routing so that, under a pinned snapshot, every staged
	// row lands in exactly one source's window.
	v.moves.forRange(s.cursor, upTo, func(m *pendingMove) {
		if v.part.Shard(m.old) == s.si {
			s.moveK = append(s.moveK, m.old)
			s.moveR = append(s.moveR, m.row)
		}
	})
	// Metrics: a non-empty batch yielded toward the cursor and any
	// staged-move rows compensated into the batch window. Recording here is
	// atomics-only and, in cursor mode, runs under the shared gate stripe —
	// both allowed by the lock-order contract.
	if o := s.e.obs; o.Enabled() {
		if len(b.rb.Keys)+len(s.moveK) > 0 {
			o.CursorBatches.Inc(s.si)
		}
		if len(s.moveK) > 0 {
			o.CompHits.Add(s.si, uint64(len(s.moveK)))
		}
	}
	if len(s.moveK) == 0 {
		b.keys, b.rows = b.rb.Keys, b.rb.Rows
	} else {
		// Merge physical rows and staged rows (both ascending; physical
		// first on ties) into the dedicated merged buffers — never in
		// place over rb, which is also an input.
		b.mk, b.mr = b.mk[:0], b.mr[:0]
		pk := b.rb.Keys
		i, j := 0, 0
		for i < len(pk) || j < len(s.moveK) {
			if j >= len(s.moveK) || (i < len(pk) && pk[i] <= s.moveK[j]) {
				b.mk = append(b.mk, pk[i])
				b.mr = append(b.mr, b.rb.Rows[i])
				i++
			} else {
				b.mk = append(b.mk, s.moveK[j])
				b.mr = append(b.mr, s.moveR[j])
				j++
			}
		}
		b.keys, b.rows = b.mk, b.mr
	}
	if tableDone || upTo >= s.hi {
		// Physical rows exhausted (possibly by this very batch), or the
		// batch ended exactly at hi (a duplicate run is never split, so
		// nothing in range remains).
		s.srcDone = true
		b.done = true
		return
	}
	s.cursor = upTo + 1
}

// start arms the read-ahead pipeline: the first fill is scheduled on the
// engine's fan-out pool immediately, so a k-source cursor prefetches all
// shards in parallel before the first Next.
func (s *shardSource) start() {
	s.scheduleFill(&s.bufs[0])
}

func (s *shardSource) scheduleFill(b *sourceBuf) {
	s.pending = true
	s.e.pool.submit(b.run)
}

// next yields the source's next (key, row) pair. The returned row aliases
// the current batch buffer and stays valid until the call after the one
// that crosses into the next batch — the freed buffer is only rescheduled
// for refill at that crossing. Reaching a stale batch raises the cursor's
// stale flag and ends the source.
func (s *shardSource) next() (int64, []int32, bool) {
	for {
		if s.cur != nil {
			if s.curI < len(s.cur.keys) {
				k, r := s.cur.keys[s.curI], s.cur.rows[s.curI]
				s.curI++
				return k, r, true
			}
			if s.cur.done {
				if s.cur.stale {
					*s.stale = true
				}
				return 0, nil, false
			}
		}
		prev := s.cur
		s.cur = <-s.pre
		s.pending = false
		s.curI = 0
		if !s.cur.done {
			if prev == nil {
				prev = &s.bufs[1]
			}
			s.scheduleFill(prev)
		}
	}
}

// close releases the source: it waits out any in-flight prefetch (which may
// briefly hold the gate stripe), recycles the table iterator, and returns
// the source to sourcePool — no fill can still be using its buffers.
func (s *shardSource) close() {
	if s.pending {
		<-s.pre
		s.pending = false
	}
	if s.it != nil {
		s.it.Close()
		s.it = nil
	}
	s.e, s.tbl, s.pinned, s.part, s.stale = nil, nil, nil, nil, nil
	s.cur, s.curI, s.srcDone = nil, 0, false
	sourcePool.Put(s)
}

// ---------------------------------------------------------------------------
// k-way loser-tree merge
// ---------------------------------------------------------------------------

// mergeSource is the input stream of the k-way merge: ascending (key, row)
// pairs, ok=false forever once exhausted.
type mergeSource interface {
	next() (key int64, row []int32, ok bool)
}

// mergeIter merges k ascending sources into one ascending stream with a
// loser tree: each advance costs one source pull plus ⌈log2 k⌉ comparisons.
// Ties yield lower-indexed sources first, making the merged order stable
// and deterministic. The previously returned winner is advanced lazily, on
// the next call, so a yielded row stays valid (no buffer recycling under
// it) until the consumer asks for the next one.
type mergeIter struct {
	srcs   []mergeSource
	keys   []int64
	rows   [][]int32
	ok     []bool
	tree   []int // tree[0] overall winner; tree[1..k-1] internal losers
	lastW  int
	inited bool
}

func newMergeIter(srcs []mergeSource) *mergeIter {
	k := len(srcs)
	return &mergeIter{
		srcs:  srcs,
		keys:  make([]int64, k),
		rows:  make([][]int32, k),
		ok:    make([]bool, k),
		tree:  make([]int, k),
		lastW: -1,
	}
}

// wins reports whether source a's head strictly precedes source b's:
// exhausted sources sort last, equal keys break toward the lower index.
func (m *mergeIter) wins(a, b int) bool {
	if !m.ok[a] {
		return false
	}
	if !m.ok[b] {
		return true
	}
	if m.keys[a] != m.keys[b] {
		return m.keys[a] < m.keys[b]
	}
	return a < b
}

// build initializes internal node t's subtree, storing losers on the way
// up and returning the subtree winner. Leaves are sources k..2k-1 in the
// standard complete-tree layout (parent of leaf w+k is (w+k)/2).
func (m *mergeIter) build(t int) int {
	if t >= len(m.srcs) {
		return t - len(m.srcs)
	}
	a := m.build(2 * t)
	b := m.build(2*t + 1)
	if m.wins(a, b) {
		m.tree[t] = b
		return a
	}
	m.tree[t] = a
	return b
}

// sift replays source w's leaf-to-root path after its head changed.
func (m *mergeIter) sift(w int) {
	k := len(m.srcs)
	s := w
	for t := (w + k) / 2; t > 0; t /= 2 {
		if m.wins(m.tree[t], s) {
			m.tree[t], s = s, m.tree[t]
		}
	}
	m.tree[0] = s
}

func (m *mergeIter) next() (int64, []int32, bool) {
	k := len(m.srcs)
	if k == 0 {
		return 0, nil, false
	}
	if !m.inited {
		m.inited = true
		for i, s := range m.srcs {
			m.keys[i], m.rows[i], m.ok[i] = s.next()
		}
		if k > 1 {
			m.tree[0] = m.build(1)
		}
	} else if m.lastW >= 0 {
		w := m.lastW
		m.keys[w], m.rows[w], m.ok[w] = m.srcs[w].next()
		if k > 1 {
			m.sift(w)
		}
	}
	w := 0
	if k > 1 {
		w = m.tree[0]
	}
	if !m.ok[w] {
		m.lastW = -1
		return 0, nil, false
	}
	m.lastW = w
	return m.keys[w], m.rows[w], true
}

// ---------------------------------------------------------------------------
// Cursors
// ---------------------------------------------------------------------------

// ScanOptions configures a streaming scan.
type ScanOptions struct {
	// Limit caps the rows the cursor yields (0 = unlimited). The cap spans
	// SeekTo repositioning: a cursor never yields more than Limit rows
	// total.
	Limit int
	// Batch is the per-shard batch row count (0 = table.DefaultScanBatch,
	// clamped down to Limit when one is set). Smaller batches lower
	// first-row latency and memory; larger ones amortize locking.
	Batch int
	// PageToken resumes a scan after the row a previous cursor's PageToken
	// recorded. An invalid token surfaces through Cursor.Err.
	PageToken string
}

// ErrBadPageToken reports a malformed or truncated page token.
var ErrBadPageToken = fmt.Errorf("shard: malformed page token")

// Cursor streams the live rows with keys in [lo, hi] in ascending key
// order across all spanned shards. Next advances to the next row; Key and
// Payload read it; the payload slice is valid only until the next Next or
// Close. Close releases the cursor's buffers (always call it; a cursor
// holds no locks between Next calls, so it may be paged at leisure).
//
// Consistency: a cursor opened with Engine.Scan holds its per-shard gate
// stripe only while filling one batch, so concurrent writes interleave at
// batch boundaries — rows inserted behind the scan position are missed,
// rows ahead are observed, staged cross-shard moves are compensated per
// batch from the then-current snapshot, and a row whose key is moved
// across the scan frontier mid-flight may be missed or observed twice. A
// rebalance install landing mid-scan reopens the cursor's sources under the
// new bounds just past the last yielded row, as a page token would. A
// cursor opened with View.Scan is pinned to the view's frozen snapshot: no
// move or install can interleave, and two drains inside one View agree
// exactly (single-shard inserts and deletes still land between batches — a
// View is move-stable, not write-stable).
type Cursor struct {
	e      *Engine
	pinned *routeSnap
	lo, hi int64
	opts   ScanOptions

	srcs  []*shardSource
	merge *mergeIter

	key     int64
	row     []int32
	yielded int
	lastKey int64
	dupN    int

	pk          int64
	prow        []int32
	havePending bool

	// stale is raised by a source that reached a stale batch: a rebalance
	// install changed the bounds the sources were opened under, and Next
	// reopens them at (lastKey, dupN).
	stale bool

	done   bool
	closed bool
	err    error

	// tr times the scan from open to Close on the OpScan histogram when the
	// registry sampled it; the zero Track is "not sampled".
	tr obs.Track
}

// Scan opens a streaming cursor over [lo, hi]. The scan is recorded in the
// drift monitor as a range access over the requested span (a Q8 op), like
// any other range read. Do not use an Engine cursor inside a View callback
// — it acquires gate stripes the callback already holds; use View.Scan.
func (e *Engine) Scan(lo, hi int64, opts ScanOptions) *Cursor {
	if e.monitoring() {
		e.record(workload.Op{Kind: workload.Q8Scan, Key: lo, Key2: hi, Limit: opts.Limit})
	}
	return e.newCursor(lo, hi, opts, nil)
}

// Scan opens a cursor pinned to the view's snapshot. It is only valid
// inside the View callback: Next after the callback returns races the
// moves the view was excluding.
func (v *View) Scan(lo, hi int64, opts ScanOptions) *Cursor {
	return v.e.newCursor(lo, hi, opts, v.v)
}

func (e *Engine) newCursor(lo, hi int64, opts ScanOptions, pinned *routeSnap) *Cursor {
	c := &Cursor{e: e, pinned: pinned, lo: lo, hi: hi, opts: opts, lastKey: lo}
	// OpScan counts at open; latency is observed at Close so it covers the
	// whole consumption window, not just cursor construction.
	c.tr = e.obs.OpBegin(obs.OpScan, int(lo))
	skip := 0
	if opts.PageToken != "" {
		k, n, err := parsePageToken(opts.PageToken)
		if err != nil {
			c.err = err
			c.done = true
			return c
		}
		if k >= lo {
			lo = k
			skip = n
		}
	}
	if hi < lo || len(e.shards) == 0 {
		c.done = true
		return c
	}
	c.open(lo, skip)
	return c
}

// open builds the per-shard sources and merge at resume key lo, then
// discards skip rows with key exactly lo (the duplicates a page token
// recorded as already yielded).
func (c *Cursor) open(lo int64, skip int) {
	v := c.pinned
	if v == nil {
		v = c.e.loadRoute()
	}
	a, b := v.part.Span(lo, c.hi)
	batch := c.opts.Batch
	if batch <= 0 {
		batch = table.DefaultScanBatch
	}
	if c.opts.Limit > 0 && c.opts.Limit < batch {
		batch = c.opts.Limit
	}
	for si := a; si <= b; si++ {
		s := sourcePool.Get().(*shardSource)
		s.e, s.si, s.hi, s.cursor = c.e, si, c.hi, lo
		s.pinned, s.part, s.batch, s.stale = c.pinned, v.part, batch, &c.stale
		s.start()
		c.srcs = append(c.srcs, s)
	}
	ms := make([]mergeSource, len(c.srcs))
	for i, s := range c.srcs {
		ms[i] = s
	}
	c.merge = newMergeIter(ms)
	c.lastKey, c.dupN = lo, 0
	for c.dupN < skip {
		k, r, ok := c.merge.next()
		if c.stale {
			c.reopen(lo, skip)
			return
		}
		if !ok {
			c.done = true
			return
		}
		if k != lo {
			// Fewer duplicates survive than the token recorded (concurrent
			// deletes); the pulled row is the next result.
			c.pk, c.prow, c.havePending = k, r, true
			return
		}
		c.dupN++
	}
}

// reopen drops every source after a rebalance install changed the bounds
// under them and reopens at (lo, skip) under the current bounds — the same
// resumption a page token recording that position performs.
func (c *Cursor) reopen(lo int64, skip int) {
	c.closeSources()
	c.stale = false
	c.open(lo, skip)
}

// Next advances to the next row, reporting whether one is available.
func (c *Cursor) Next() bool {
	if c.done || c.err != nil {
		return false
	}
	if c.opts.Limit > 0 && c.yielded >= c.opts.Limit {
		c.done = true
		return false
	}
	var k int64
	var r []int32
	var ok bool
	for {
		if c.havePending {
			k, r, ok = c.pk, c.prow, true
			c.havePending = false
		} else {
			k, r, ok = c.merge.next()
		}
		if !c.stale {
			break
		}
		// A source reached a rebalance install: whatever the merge pulled
		// may be misattributed, so resume just past the last yielded row.
		c.reopen(c.lastKey, c.dupN)
		if c.done {
			return false
		}
	}
	if !ok {
		c.done = true
		return false
	}
	c.key, c.row = k, r
	if k == c.lastKey {
		c.dupN++
	} else {
		c.lastKey, c.dupN = k, 1
	}
	c.yielded++
	return true
}

// Key returns the current row's key; valid after a true Next.
func (c *Cursor) Key() int64 { return c.key }

// Payload returns the current row's payload columns. The slice aliases the
// cursor's batch buffers: it is valid only until the next Next, SeekTo, or
// Close — copy it to retain it.
func (c *Cursor) Payload() []int32 { return c.row }

// Err reports a cursor construction failure (e.g. a malformed page token).
// A drained cursor with a nil Err ended normally.
func (c *Cursor) Err() error { return c.err }

// SeekTo repositions the cursor so the next row is the first with key >=
// key (clamped to the cursor's [lo, hi]), discarding the current
// read-ahead. Rows already yielded keep counting against Limit.
func (c *Cursor) SeekTo(key int64) {
	if c.closed || c.err != nil {
		return
	}
	c.closeSources()
	c.havePending = false
	c.done = false
	if key < c.lo {
		key = c.lo
	}
	if key > c.hi {
		c.done = true
		c.lastKey, c.dupN = key, 0
		return
	}
	c.open(key, 0)
}

// PageToken returns a token that resumes the scan just past the last row
// this cursor yielded (from the cursor's start, when none was yielded
// yet). Pass it as ScanOptions.PageToken to a later Scan — resuming
// tolerates writes in between: the next page starts at the first live row
// after the recorded position, even mid-way through a duplicate-key run.
func (c *Cursor) PageToken() string {
	return fmt.Sprintf("s1:%d:%d", c.lastKey, c.dupN)
}

func parsePageToken(tok string) (key int64, skip int, err error) {
	var k int64
	var n int
	if _, err := fmt.Sscanf(tok, "s1:%d:%d", &k, &n); err != nil || n < 0 {
		return 0, 0, fmt.Errorf("%w: %q", ErrBadPageToken, tok)
	}
	return k, n, nil
}

// Close releases the cursor's sources and buffers. Idempotent.
func (c *Cursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.done = true
	c.closeSources()
	c.e.obs.OpEnd(obs.OpScan, int(c.lo), c.tr)
}

func (c *Cursor) closeSources() {
	for _, s := range c.srcs {
		s.close()
	}
	clear(c.srcs)
	c.srcs = c.srcs[:0]
	c.merge = nil
}
