// Chunk-bounded scan iteration: the lazy read path under every range
// reader that consumes rows (aggregates use the chunk kernels in table.go
// instead). A ScanIter walks the chunks overlapping [lo, hi] one at a time,
// materializing at most one chunk's qualifying positions plus one caller
// batch — never the whole result — so memory and first-row latency are
// bounded by the chunk and batch sizes, not the result size.
package table

import (
	"sort"
	"sync"
)

// DefaultScanBatch is the batch row count used when a caller passes max <= 0
// to NextBatch, and the batch size of the package's own scan-based readers
// (Snapshot, Keys, KeysInRange).
const DefaultScanBatch = 1024

// RowBuf is a reusable scan batch: parallel Keys/Rows slices backed by a
// flat arena, refilled in place by ScanIter.NextBatch so steady-state
// batches allocate nothing. Rows is nil for keys-only scans; Rows[i] aliases
// the arena and is valid only until the next NextBatch call on the same
// buffer — callers retaining rows must copy them.
type RowBuf struct {
	Keys []int64
	Rows [][]int32
	data []int32
}

// Len returns the number of rows in the batch.
func (b *RowBuf) Len() int { return len(b.Keys) }

// Reset empties the batch, keeping capacity.
func (b *RowBuf) Reset() {
	b.Keys = b.Keys[:0]
	b.Rows = b.Rows[:0]
	b.data = b.data[:0]
}

// ScanIter streams the live rows of one table with key in [lo, hi] in
// ascending key order, one chunk at a time. It holds no locks between
// NextBatch calls: each batch takes the current chunk's read lock, validates
// the chunk version captured with its position set, and recaptures from the
// resume key if a writer intervened. Batches always end at a key boundary
// (a duplicate-key run is never split across batches), so the iterator can
// always resume at lastKey+1 regardless of concurrent mutation.
//
// Consistency matches Snapshot's contract: per-chunk atomicity only. A row
// inserted behind the scan position is missed; one inserted ahead is
// observed; neither is ever torn.
type ScanIter struct {
	t        *Table
	hi       int64
	resume   int64 // next key the scan may observe
	ci, cb   int   // current and last chunk ordinal
	withRows bool

	// capture of chunk ci's qualifying positions, key-sorted.
	loaded bool
	ver    uint64
	i      int // consumption index into keys/pos
	keys   []int64
	pos    []int
	posBuf []int
}

var scanIterPool = sync.Pool{New: func() any { return new(ScanIter) }}

var rowBufPool = sync.Pool{New: func() any { return new(RowBuf) }}

func getRowBuf() *RowBuf  { return rowBufPool.Get().(*RowBuf) }
func putRowBuf(b *RowBuf) { rowBufPool.Put(b) }

// ScanRange returns an iterator over the live rows with key in [lo, hi],
// ascending, with payload rows. Close the iterator when done to recycle it.
func (t *Table) ScanRange(lo, hi int64) *ScanIter { return t.newScan(lo, hi, true) }

// ScanRangeKeys is ScanRange without payload copying: NextBatch fills only
// buf.Keys, for consumers that plan by key alone.
func (t *Table) ScanRangeKeys(lo, hi int64) *ScanIter { return t.newScan(lo, hi, false) }

func (t *Table) newScan(lo, hi int64, withRows bool) *ScanIter {
	it := scanIterPool.Get().(*ScanIter)
	a, b := t.chunkRange(lo, hi)
	it.t = t
	it.hi = hi
	it.resume = lo
	it.ci, it.cb = a, b
	it.withRows = withRows
	it.loaded = false
	it.i = 0
	if hi < lo {
		it.cb = it.ci - 1
	}
	return it
}

// Close releases the iterator back to the pool. The iterator must not be
// used afterwards.
func (it *ScanIter) Close() {
	if it == nil || it.t == nil {
		return
	}
	it.t = nil
	it.loaded = false
	scanIterPool.Put(it)
}

// Done reports whether the scan is exhausted: the next NextBatch would
// return false. It turns true together with the batch that finishes the
// scan, so a consumer can stop after its last non-empty batch instead of
// paying one more (empty) NextBatch to learn the end.
func (it *ScanIter) Done() bool { return it.t == nil || it.ci > it.cb }

// NextBatch fills buf with the next batch of rows in ascending key order and
// reports whether it produced any. Batches hold at most max rows (max <= 0
// selects DefaultScanBatch) but are extended past max to finish a
// duplicate-key run, so consecutive batches never share a key. A false
// return means the scan is exhausted; buf is empty.
//
// A full batch stops only at the first key that does not fit, so a batch
// that fills at a chunk's end looks ahead into the following chunks (whose
// capture the next call reuses): Done is exact after every call.
func (it *ScanIter) NextBatch(buf *RowBuf, max int) bool {
	buf.Reset()
	if it.t == nil {
		return false
	}
	if max <= 0 {
		max = DefaultScanBatch
	}
	for it.ci <= it.cb {
		ck := it.t.chunks[it.ci]
		ck.mu.RLock()
		if !it.loaded || ck.ver != it.ver {
			it.capture(ck)
		}
		n := len(it.keys)
		for it.i < n {
			k := it.keys[it.i]
			if len(buf.Keys) >= max && k != buf.Keys[len(buf.Keys)-1] {
				break
			}
			buf.Keys = append(buf.Keys, k)
			if it.withRows {
				p := it.pos[it.i]
				for c := range ck.mover.cols {
					buf.data = append(buf.data, ck.mover.cols[c][p])
				}
			}
			it.i++
		}
		done := it.i >= n
		ck.mu.RUnlock()
		if !done {
			break // batch full at a key boundary inside this chunk
		}
		it.ci++
		it.loaded = false
	}
	if it.withRows {
		// Rebuild Rows as arena windows only after the arena stopped
		// growing: appends may have reallocated data mid-batch.
		w := it.t.cfg.PayloadCols
		for i := range buf.Keys {
			buf.Rows = append(buf.Rows, buf.data[i*w:(i+1)*w:(i+1)*w])
		}
	}
	if len(buf.Keys) == 0 {
		return false
	}
	if last := buf.Keys[len(buf.Keys)-1]; last >= it.hi {
		// last == hi: nothing left to observe (also avoids lastKey+1
		// overflow when hi is MaxInt64).
		it.ci = it.cb + 1
		it.loaded = false
	} else {
		it.resume = last + 1
	}
	return true
}

// capture snapshots chunk ck's qualifying positions from the resume key,
// sorted by key (stable, preserving RangePositions order among duplicates).
// Caller holds ck.mu; the capture stays valid as long as ck.ver is
// unchanged, which NextBatch revalidates under the lock on every call.
func (it *ScanIter) capture(ck *chunk) {
	it.posBuf = ck.store.RangePositions(it.resume, it.hi, it.posBuf[:0])
	it.keys = it.keys[:0]
	it.pos = it.pos[:0]
	for _, p := range it.posBuf {
		it.keys = append(it.keys, ck.keyAt(p))
		it.pos = append(it.pos, p)
	}
	sort.Stable(&keyPosSort{keys: it.keys, pos: it.pos})
	it.ver = ck.ver
	it.loaded = true
	it.i = 0
}

type keyPosSort struct {
	keys []int64
	pos  []int
}

func (s *keyPosSort) Len() int           { return len(s.keys) }
func (s *keyPosSort) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *keyPosSort) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.pos[i], s.pos[j] = s.pos[j], s.pos[i]
}
