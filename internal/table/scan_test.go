package table

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refRange returns the expected (keys, rows) of a [lo, hi] scan by brute
// force from a Snapshot taken before the scan.
func refRange(keys []int64, rows [][]int32, lo, hi int64) ([]int64, [][]int32) {
	var rk []int64
	var rr [][]int32
	for i, k := range keys {
		if k >= lo && k <= hi {
			rk = append(rk, k)
			rr = append(rr, rows[i])
		}
	}
	return rk, rr
}

func drainScan(t *testing.T, it *ScanIter, max int) ([]int64, [][]int32) {
	t.Helper()
	var keys []int64
	var rows [][]int32
	buf := &RowBuf{}
	prevLast := int64(math.MinInt64)
	for it.NextBatch(buf, max) {
		if buf.Len() == 0 {
			t.Fatal("NextBatch returned true with empty batch")
		}
		if buf.Keys[0] == prevLast && prevLast != math.MinInt64 {
			t.Fatalf("duplicate run split across batches at key %d", prevLast)
		}
		for i, k := range buf.Keys {
			if i > 0 && k < buf.Keys[i-1] {
				t.Fatalf("batch not ascending: %d after %d", k, buf.Keys[i-1])
			}
			if k < prevLast {
				t.Fatalf("batch regressed below previous batch: %d < %d", k, prevLast)
			}
		}
		prevLast = buf.Keys[buf.Len()-1]
		keys = append(keys, buf.Keys...)
		for _, r := range buf.Rows {
			rows = append(rows, append([]int32(nil), r...))
		}
	}
	return keys, rows
}

// TestScanRangeMatchesSnapshot checks, in every layout mode and across batch
// sizes, that the chunk-bounded iterator yields exactly the rows a
// materialized Snapshot reports for the range, in ascending key order.
func TestScanRangeMatchesSnapshot(t *testing.T) {
	for _, mode := range Modes() {
		tb := buildTable(t, mode, 3000)
		// Force duplicates so runs exercise the key-boundary batch cut.
		for i := 0; i < 50; i++ {
			tb.Insert(int64(1000 + i%10))
		}
		keys, rows := tb.Snapshot()
		for _, batch := range []int{1, 7, 256, 0} {
			for _, rng := range [][2]int64{
				{0, 30_000}, {500, 1500}, {math.MinInt64, math.MaxInt64},
				{29_999, 29_000}, // empty (hi < lo)
			} {
				wantK, wantR := refRange(keys, rows, rng[0], rng[1])
				it := tb.ScanRange(rng[0], rng[1])
				gotK, gotR := drainScan(t, it, batch)
				it.Close()
				if len(gotK) != len(wantK) {
					t.Fatalf("%v batch=%d range=%v: %d keys, want %d", mode, batch, rng, len(gotK), len(wantK))
				}
				for i := range gotK {
					if gotK[i] != wantK[i] {
						t.Fatalf("%v batch=%d: key[%d]=%d want %d", mode, batch, i, gotK[i], wantK[i])
					}
					if !rowsEqual(gotR[i], wantR[i]) {
						t.Fatalf("%v batch=%d: row[%d]=%v want %v", mode, batch, i, gotR[i], wantR[i])
					}
				}
			}
		}
	}
}

// TestScanRangeKeysOnly checks the keys-only scan agrees with KeysInRange.
func TestScanRangeKeysOnly(t *testing.T) {
	for _, mode := range Modes() {
		tb := buildTable(t, mode, 2000)
		want := tb.KeysInRange(100, 9000)
		it := tb.ScanRangeKeys(100, 9000)
		got, rows := drainScan(t, it, 64)
		it.Close()
		if len(rows) != 0 {
			t.Fatalf("%v: keys-only scan yielded %d rows", mode, len(rows))
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d keys, want %d", mode, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: key[%d]=%d want %d", mode, i, got[i], want[i])
			}
		}
	}
}

// TestScanSurvivesConcurrentMutation interleaves writes with a paused scan:
// the iterator must revalidate its chunk capture and keep yielding a sorted,
// duplicate-run-intact stream whose keys all belong to the union of the
// original and inserted key sets.
func TestScanSurvivesConcurrentMutation(t *testing.T) {
	for _, mode := range Modes() {
		tb := buildTable(t, mode, 3000)
		valid := make(map[int64]bool)
		for _, k := range tb.Keys() {
			valid[k] = true
		}
		rng := rand.New(rand.NewSource(7))
		it := tb.ScanRange(math.MinInt64, math.MaxInt64)
		buf := &RowBuf{}
		last := int64(math.MinInt64)
		n := 0
		for it.NextBatch(buf, 128) {
			for _, k := range buf.Keys {
				if k < last {
					t.Fatalf("%v: scan regressed: %d < %d", mode, k, last)
				}
				last = k
				if !valid[k] {
					t.Fatalf("%v: scan yielded key %d never inserted", mode, k)
				}
			}
			n += buf.Len()
			// Mutate between batches: inserts ahead and behind, deletes,
			// and an update, all bumping chunk versions mid-scan.
			for i := 0; i < 5; i++ {
				k := rng.Int63n(30_000)
				tb.Insert(k)
				valid[k] = true
			}
			_ = tb.Delete(rng.Int63n(30_000))
			nk := rng.Int63n(30_000)
			if tb.UpdateKey(rng.Int63n(30_000), nk) == nil {
				valid[nk] = true
			}
		}
		it.Close()
		if n == 0 {
			t.Fatalf("%v: scan yielded nothing", mode)
		}
	}
}

// TestScanExtremeKeys pins the int64 boundary behavior: keys at MinInt64 and
// MaxInt64 are yielded exactly once and the iterator terminates.
func TestScanExtremeKeys(t *testing.T) {
	for _, mode := range Modes() {
		keys := []int64{math.MinInt64, math.MinInt64, -5, 0, 7, math.MaxInt64, math.MaxInt64}
		tb, err := New(keys, testConfig(mode), nil)
		if err != nil {
			t.Fatalf("New(%v): %v", mode, err)
		}
		it := tb.ScanRange(math.MinInt64, math.MaxInt64)
		got, _ := drainScan(t, it, 2)
		it.Close()
		want := append([]int64(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("%v: %d keys, want %d (%v vs %v)", mode, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: key[%d]=%d want %d", mode, i, got[i], want[i])
			}
		}
	}
}

// TestScanIterDoneWithLastBatch pins Done: it turns true together with the
// last non-empty batch, never earlier, including when a batch fills exactly
// at a chunk's end and the chunk after it holds nothing in range.
func TestScanIterDoneWithLastBatch(t *testing.T) {
	for _, mode := range Modes() {
		tb := buildTable(t, mode, 3000)
		for i := 0; i < 30; i++ {
			tb.Insert(int64(1000 + i%5))
		}
		// Chunk 1 overlaps [MinInt64, lower1] but, with lower1 deleted, holds
		// no row in it: a batch of exactly chunk 0's rows must finish the scan.
		lower1 := tb.chunkLower[1]
		for tb.Delete(lower1) == nil {
		}
		n0 := len(tb.KeysInRange(math.MinInt64, lower1))
		for _, batch := range []int{1, 7, 64, n0, 0} {
			for _, rng := range [][2]int64{
				{0, 30_000}, {500, 1500}, {math.MinInt64, math.MaxInt64},
				{math.MinInt64, lower1}, {29_999, 29_000},
			} {
				it := tb.ScanRange(rng[0], rng[1])
				buf := &RowBuf{}
				batches, done := 0, false
				for it.NextBatch(buf, batch) {
					if done {
						t.Fatalf("%v batch=%d range=%v: batch %d after Done", mode, batch, rng, batches)
					}
					batches++
					done = it.Done()
				}
				it.Close()
				if batches > 0 && !done {
					t.Fatalf("%v batch=%d range=%v: Done false after the last of %d batches", mode, batch, rng, batches)
				}
			}
		}
	}
}

// TestScanBufferReuse checks NextBatch reuses the caller's buffer: after a
// warmup batch, refills at the same width must not grow the arena.
func TestScanBufferReuse(t *testing.T) {
	tb := buildTable(t, Sorted, 4000)
	it := tb.ScanRange(math.MinInt64, math.MaxInt64)
	defer it.Close()
	buf := &RowBuf{}
	if !it.NextBatch(buf, 256) {
		t.Fatal("empty first batch")
	}
	capKeys, capData := cap(buf.Keys), cap(buf.data)
	for it.NextBatch(buf, 256) {
		if cap(buf.Keys) != capKeys || cap(buf.data) != capData {
			t.Fatalf("buffer grew across refills: keys %d->%d data %d->%d",
				capKeys, cap(buf.Keys), capData, cap(buf.data))
		}
	}
}

// TestSnapshotMatchesLegacyOrder regression-pins the Snapshot rebasing: the
// per-chunk stable sort must reproduce the old global stable sort, byte for
// byte, including duplicate-key payload order.
func TestSnapshotMatchesLegacyOrder(t *testing.T) {
	for _, mode := range Modes() {
		tb := buildTable(t, mode, 2500)
		for i := 0; i < 40; i++ {
			tb.InsertRow(int64(777), []int32{int32(i), int32(i * 2), 0, 0})
		}
		keys, rows := tb.Snapshot()
		if len(keys) != tb.Len() {
			t.Fatalf("%v: snapshot %d rows, want %d", mode, len(keys), tb.Len())
		}
		if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
			t.Fatalf("%v: snapshot keys not sorted", mode)
		}
		// Round-trip: a table rebuilt from the snapshot snapshots equal.
		tb2, err := NewFromRows(keys, rows, testConfig(mode))
		if err != nil {
			t.Fatalf("%v: NewFromRows: %v", mode, err)
		}
		k2, r2 := tb2.Snapshot()
		if len(k2) != len(keys) {
			t.Fatalf("%v: round-trip %d rows, want %d", mode, len(k2), len(keys))
		}
		for i := range keys {
			if keys[i] != k2[i] || !rowsEqual(rows[i], r2[i]) {
				t.Fatalf("%v: round-trip mismatch at %d", mode, i)
			}
		}
	}
}
