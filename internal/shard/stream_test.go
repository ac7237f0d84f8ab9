package shard

// Streaming read-path suite: oracle equivalence of cursor drains and
// aggregates against the fan-out of the tables' native kernels and against
// each other (quiescent and under concurrent cross-shard moves and
// rebalance installs), cursor pagination semantics (LIMIT, page tokens,
// SeekTo), the loser-tree merge, and the drift-monitor attribution of Q8
// scans.

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"casper/internal/table"
	"casper/internal/workload"
)

func streamTestEngine(t *testing.T, n int, shards int, byRange bool) (*Engine, []int64) {
	t.Helper()
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i * 3) // gaps so inserts/moves have room
	}
	e, err := New(keys, Config{Shards: shards, ByRange: byRange, Table: moveTestConfig()})
	if err != nil {
		t.Fatal(err)
	}
	return e, keys
}

// drainCursor pages a cursor to exhaustion, asserting ascending key order,
// and returns the yielded keys and deep-copied payload rows.
func drainCursor(t *testing.T, c *Cursor) ([]int64, [][]int32) {
	t.Helper()
	var keys []int64
	var rows [][]int32
	last := int64(math.MinInt64)
	first := true
	for c.Next() {
		k := c.Key()
		if !first && k < last {
			t.Fatalf("cursor regressed: %d after %d", k, last)
		}
		first, last = false, k
		keys = append(keys, k)
		rows = append(rows, append([]int32(nil), c.Payload()...))
	}
	if err := c.Err(); err != nil {
		t.Fatalf("cursor error: %v", err)
	}
	return keys, rows
}

// TestScanMatchesMaterialized checks, quiescent, on both partitioning
// schemes, that a full cursor drain is byte-equal to the brute-force
// expectation, and that the stream-folded aggregates equal the retained
// materialized fan-out.
func TestScanMatchesMaterialized(t *testing.T) {
	for _, byRange := range []bool{false, true} {
		e, keys := streamTestEngine(t, 2_000, 4, byRange)
		// Duplicates exercise run-preserving batch cuts through the merge.
		for i := 0; i < 25; i++ {
			e.Insert(999)
		}
		all := append(append([]int64(nil), keys...), make([]int64, 25)...)
		for i := 0; i < 25; i++ {
			all[len(keys)+i] = 999
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		for _, rng := range [][2]int64{
			{math.MinInt64, math.MaxInt64}, {0, 1_500}, {999, 999}, {100, 50},
		} {
			lo, hi := rng[0], rng[1]
			var want []int64
			for _, k := range all {
				if k >= lo && k <= hi {
					want = append(want, k)
				}
			}
			c := e.Scan(lo, hi, ScanOptions{})
			got, rows := drainCursor(t, c)
			c.Close()
			if len(got) != len(want) {
				t.Fatalf("byRange=%v [%d,%d]: %d keys, want %d", byRange, lo, hi, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("byRange=%v: key[%d]=%d want %d", byRange, i, got[i], want[i])
				}
				if got[i] != 999 { // duplicate inserts share a key; payloads differ by insert order
					for col, v := range rows[i] {
						if v != table.DefaultPayload(got[i], col) {
							t.Fatalf("byRange=%v: row[%d] col %d = %d, want default payload", byRange, i, col, v)
						}
					}
				}
			}
			// Aggregate folds vs the materialized baseline under one snapshot.
			e.View(func(v *View) {
				a, b := v.v.part.Span(lo, hi)
				if hi < lo {
					return
				}
				matC := e.fanOut(a, b, func(t *table.Table) int64 { return int64(t.RangeCount(lo, hi)) })
				if got := v.RangeCount(lo, hi); int64(got) != matC {
					t.Fatalf("byRange=%v: stream RangeCount=%d materialized=%d", byRange, got, matC)
				}
				matS := e.fanOut(a, b, func(t *table.Table) int64 { return t.RangeSum(lo, hi) })
				if got := v.RangeSum(lo, hi); got != matS {
					t.Fatalf("byRange=%v: stream RangeSum=%d materialized=%d", byRange, got, matS)
				}
				matM := e.fanOut(a, b, func(t *table.Table) int64 { return t.MultiRangeSum(lo, hi, nil, 1) })
				if got := v.MultiRangeSum(lo, hi, nil, 1); got != matM {
					t.Fatalf("byRange=%v: stream MultiRangeSum=%d materialized=%d", byRange, got, matM)
				}
			})
		}
	}
}

// TestStreamOracleViewPinned is the concurrency oracle: while movers
// ping-pong cross-shard pairs and a rebalancer alternates boundary
// installs, every View must observe stream aggregates equal to the
// materialized fan-out plus staged-move compensation computed under the
// same pinned snapshot, and two cursor drains inside one View must be
// byte-identical.
func TestStreamOracleViewPinned(t *testing.T) {
	e, _ := streamTestEngine(t, 3_000, 4, true)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for w := 0; w < 2; w++ {
		// crossShardPair scans upward, which never changes shard under range
		// partitioning — pick one key above every initial bound (last shard)
		// and one at the bottom (first shard) instead. Non-multiples of 3
		// keep them absent from the seeded keys.
		a, b := int64(1_000_001+w*10_000), int64(6*w+1)
		if sh := e.Partitioner(); sh.Shard(a) == sh.Shard(b) {
			t.Fatalf("pair (%d,%d) landed on one shard", a, b)
		}
		e.Insert(a)
		wg.Add(1)
		go func(a, b int64) {
			defer wg.Done()
			cur, alt := a, b
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := e.UpdateKey(cur, alt); err == nil {
					cur, alt = alt, cur
				}
			}
		}(a, b)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		flip := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			if flip {
				_, _ = e.Rebalance()
			} else {
				_, _ = e.RebalanceWith(RebalanceQuantile)
			}
			flip = !flip
			time.Sleep(time.Millisecond)
		}
	}()

	deadline := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		lo, hi := int64(500), int64(1_010_000)
		e.View(func(v *View) {
			a, b := v.v.part.Span(lo, hi)
			matC := e.fanOut(a, b, func(t *table.Table) int64 { return int64(t.RangeCount(lo, hi)) })
			v.v.moves.forRange(lo, hi, func(*pendingMove) { matC++ })
			if got := v.RangeCount(lo, hi); int64(got) != matC {
				t.Errorf("view: stream RangeCount=%d materialized=%d", got, matC)
			}
			matS := e.fanOut(a, b, func(t *table.Table) int64 { return t.RangeSum(lo, hi) })
			v.v.moves.forRange(lo, hi, func(m *pendingMove) { matS += m.old })
			if got := v.RangeSum(lo, hi); got != matS {
				t.Errorf("view: stream RangeSum=%d materialized=%d", got, matS)
			}

			c1 := v.Scan(lo, hi, ScanOptions{Batch: 64})
			k1, r1 := drainCursor(t, c1)
			c1.Close()
			c2 := v.Scan(lo, hi, ScanOptions{Batch: 512})
			k2, r2 := drainCursor(t, c2)
			c2.Close()
			if len(k1) != len(k2) || int64(len(k1)) != matC {
				t.Errorf("view drains: %d and %d rows, materialized %d", len(k1), len(k2), matC)
				return
			}
			var sum int64
			for i := range k1 {
				if k1[i] != k2[i] {
					t.Errorf("view drains diverge at %d: %d vs %d", i, k1[i], k2[i])
					return
				}
				for c := range r1[i] {
					if r1[i][c] != r2[i][c] {
						t.Errorf("view drain payloads diverge at row %d col %d", i, c)
						return
					}
				}
				sum += k1[i]
			}
			if sum != matS {
				t.Errorf("view drain key sum %d, materialized %d", sum, matS)
			}
		})
	}
	close(stop)
	wg.Wait()
}

// TestAggregatesMatchCursorDrain is the aggregates' independent oracle:
// inside one View, RangeCount, RangeSum and MultiRangeSum (two payload
// filters, a non-zero sum column) must equal a brute-force fold over the
// rows View.Scan drains — on both partitioning schemes, over duplicate
// keys with distinct payloads, empty and inverted ranges, while movers
// ping-pong rows across shards and (range partitioning) a rebalancer
// alternates boundary installs, so staged-move compensation is exercised.
func TestAggregatesMatchCursorDrain(t *testing.T) {
	filters := []table.PayloadFilter{{Col: 1, Lo: 5, Hi: math.MaxInt32}, {Col: 3, Lo: math.MinInt32, Hi: 6_000}}
	const sumCol = 2
	ranges := [][2]int64{
		{math.MinInt64, math.MaxInt64}, {500, 1_010_000}, {0, 4_000}, {1_400, 1_600},
		{1_500, 1_500}, {4, 5}, {100, 50},
	}
	for _, byRange := range []bool{false, true} {
		e, _ := streamTestEngine(t, 3_000, 4, byRange)
		// A duplicate run whose rows carry distinct payloads: fresh inserts
		// plus rows moved in from other keys.
		for i := 0; i < 30; i++ {
			e.Insert(1_500)
		}
		for _, k := range []int64{30, 5_001, 8_997} {
			if err := e.UpdateKey(k, 1_500); err != nil {
				t.Fatal(err)
			}
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			// The pairs of TestStreamOracleViewPinned (one key above every
			// range bound, one at the bottom; both absent from the seeded
			// multiples of 3), with the low key stepped until it hashes to
			// another shard. Mover 0's row carries the high key's payload,
			// which the filters reject; mover 1's the low key's, which they
			// accept.
			a, b := int64(1_000_001+w*10_000), int64(6*w+1)
			for sh := e.Partitioner(); sh.Shard(a) == sh.Shard(b); b += 6 {
				if byRange || b > 5_000 {
					t.Fatalf("no cross-shard partner for %d", a)
				}
			}
			if w == 1 {
				a, b = b, a
			}
			e.Insert(a)
			wg.Add(1)
			go func(a, b int64) {
				defer wg.Done()
				cur, alt := a, b
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := e.UpdateKey(cur, alt); err == nil {
						cur, alt = alt, cur
					}
				}
			}(a, b)
		}
		if byRange {
			wg.Add(1)
			go func() {
				defer wg.Done()
				flip := false
				for {
					select {
					case <-stop:
						return
					default:
					}
					if flip {
						_, _ = e.Rebalance()
					} else {
						_, _ = e.RebalanceWith(RebalanceQuantile)
					}
					flip = !flip
					time.Sleep(time.Millisecond)
				}
			}()
		}

		deadline := time.Now().Add(300 * time.Millisecond)
		for round := 0; round == 0 || time.Now().Before(deadline); round++ {
			e.View(func(v *View) {
				for _, r := range ranges {
					lo, hi := r[0], r[1]
					c := v.Scan(lo, hi, ScanOptions{Batch: 128})
					keys, rows := drainCursor(t, c)
					c.Close()
					var sum, multi int64
				rowLoop:
					for i, k := range keys {
						sum += k
						for _, f := range filters {
							if x := rows[i][f.Col]; x < f.Lo || x > f.Hi {
								continue rowLoop
							}
						}
						multi += int64(rows[i][sumCol])
					}
					if got := v.RangeCount(lo, hi); got != len(keys) {
						t.Errorf("byRange=%v [%d,%d]: RangeCount=%d, drain has %d rows", byRange, lo, hi, got, len(keys))
					}
					if got := v.RangeSum(lo, hi); got != sum {
						t.Errorf("byRange=%v [%d,%d]: RangeSum=%d, drain sums to %d", byRange, lo, hi, got, sum)
					}
					if got := v.MultiRangeSum(lo, hi, filters, sumCol); got != multi {
						t.Errorf("byRange=%v [%d,%d]: MultiRangeSum=%d, drain folds to %d", byRange, lo, hi, got, multi)
					}
				}
			})
			if t.Failed() {
				break
			}
		}
		close(stop)
		wg.Wait()
	}
}

// TestCursorPagingUnderMovers races Engine cursors (loose mode) against
// ping-ponging cross-shard movers: every page must stay ascending and
// in-range, stable keys (never touched by a mover) must each appear
// exactly once, and mover-owned keys only ever yield members of their
// pair. Run under -race this also exercises the per-batch stripe protocol.
func TestCursorPagingUnderMovers(t *testing.T) {
	e, keys := streamTestEngine(t, 2_000, 4, false)
	stable := make(map[int64]bool, len(keys))
	for _, k := range keys {
		stable[k] = true
	}
	pairs := make(map[int64]bool)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		a, b := crossShardPair(t, e, int64(2_000_000+w*10_000))
		pairs[a], pairs[b] = true, true
		e.Insert(a)
		wg.Add(1)
		go func(a, b int64) {
			defer wg.Done()
			cur, alt := a, b
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := e.UpdateKey(cur, alt); err == nil {
					cur, alt = alt, cur
				}
			}
		}(a, b)
	}

	for round := 0; round < 20; round++ {
		seen := make(map[int64]int)
		tok := ""
		for page := 0; ; page++ {
			c := e.Scan(math.MinInt64, math.MaxInt64, ScanOptions{Limit: 157, Batch: 32, PageToken: tok})
			ks, _ := drainCursor(t, c)
			tok = c.PageToken()
			c.Close()
			if len(ks) == 0 {
				break
			}
			for _, k := range ks {
				seen[k]++
				if !stable[k] && !pairs[k] {
					t.Fatalf("cursor yielded key %d that was never inserted", k)
				}
			}
			if page > 200 {
				t.Fatal("paging never terminated")
			}
		}
		for k := range stable {
			if seen[k] != 1 {
				t.Fatalf("stable key %d seen %d times, want exactly once", k, seen[k])
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestCursorLimitSeekAndTokens pins the pagination semantics: LIMIT caps
// totals, page tokens resume mid-duplicate-run without loss or repeat,
// SeekTo repositions, and malformed tokens surface through Err.
func TestCursorLimitSeekAndTokens(t *testing.T) {
	e, keys := streamTestEngine(t, 500, 4, false)
	// A duplicate run longer than the page size, to split across pages.
	for i := 0; i < 23; i++ {
		e.Insert(600)
	}
	var all []int64
	c := e.Scan(math.MinInt64, math.MaxInt64, ScanOptions{})
	all, _ = drainCursor(t, c)
	c.Close()
	if len(all) != len(keys)+23 {
		t.Fatalf("full drain %d rows, want %d", len(all), len(keys)+23)
	}

	// Page in 7s: concatenation must equal the full drain exactly.
	var paged []int64
	tok := ""
	for {
		c := e.Scan(math.MinInt64, math.MaxInt64, ScanOptions{Limit: 7, PageToken: tok})
		ks, _ := drainCursor(t, c)
		tok = c.PageToken()
		c.Close()
		if len(ks) == 0 {
			break
		}
		if len(ks) > 7 {
			t.Fatalf("page of %d rows exceeds Limit 7", len(ks))
		}
		paged = append(paged, ks...)
	}
	if len(paged) != len(all) {
		t.Fatalf("paged drain %d rows, want %d", len(paged), len(all))
	}
	for i := range all {
		if paged[i] != all[i] {
			t.Fatalf("paged[%d]=%d, full[%d]=%d", i, paged[i], i, all[i])
		}
	}

	// SeekTo: jump forward, stream continues from the first key >= target.
	c = e.Scan(0, 2_000, ScanOptions{})
	if !c.Next() {
		t.Fatal("empty scan")
	}
	c.SeekTo(600)
	if !c.Next() || c.Key() != 600 {
		t.Fatalf("after SeekTo(600): key %d, want 600", c.Key())
	}
	c.Close()

	// Limit spans SeekTo: total yields stay capped.
	c = e.Scan(0, 2_000, ScanOptions{Limit: 5})
	n := 0
	for i := 0; i < 2 && c.Next(); i++ {
		n++
	}
	c.SeekTo(900)
	for c.Next() {
		n++
	}
	if n > 5 {
		t.Fatalf("cursor yielded %d rows across SeekTo, Limit 5", n)
	}
	c.Close()

	// Malformed token: Err, no rows, no panic.
	c = e.Scan(0, 100, ScanOptions{PageToken: "zz:not-a-token"})
	if c.Next() {
		t.Fatal("cursor with bad token yielded a row")
	}
	if c.Err() == nil {
		t.Fatal("bad page token produced no error")
	}
	c.Close()
}

// TestScanMonitorAttribution checks a cursor scan records itself in the
// drift monitor as a Q8 range access over the requested span, on every
// shard the span routes to.
func TestScanMonitorAttribution(t *testing.T) {
	e, _ := streamTestEngine(t, 200, 2, false)
	e.monOn.Add(1)
	defer e.monOn.Add(-1)

	c := e.Scan(0, 597, ScanOptions{Limit: 10})
	drainCursor(t, c)
	c.Close()

	counts := monitorKinds(e)
	if counts[workload.Q8Scan] != len(e.shards) {
		t.Errorf("Q8Scan recorded on %d shards, want %d (hash span is the fleet)",
			counts[workload.Q8Scan], len(e.shards))
	}

	// Execute dispatches Q8 ops and honors the op's Limit.
	if got := execute(t, e, workload.Op{Kind: workload.Q8Scan, Key: 0, Key2: 597, Limit: 13}); got != 13 {
		t.Errorf("Execute(Q8Scan, Limit 13) yielded %d rows", got)
	}
	if execute(t, e, workload.Op{Kind: workload.Q8Scan, Key: 0, Key2: 597}) != 200 {
		t.Error("Execute(Q8Scan, no limit) did not drain the range")
	}
}

// TestCursorAcrossRebalanceInstall pins exactly-once delivery for an
// Engine cursor whose bounds change mid-scan: a rebalance install between
// two Next calls moves rows to and from shards the cursor has already
// scanned, so the cursor must reopen under the new bounds instead of
// double-counting (bounds grown into scanned keys) or missing rows (bounds
// shrunk behind the scan). The duplicate-run case reopens mid-run.
func TestCursorAcrossRebalanceInstall(t *testing.T) {
	for _, tc := range []struct {
		name   string
		bounds []int64
		dups   int // extra copies of key 50
		read   int // rows consumed before the install
	}{
		{"grow shard 0", []int64{1500, 2000, 3000}, 0, 100},
		{"shrink shard 0", []int64{500, 2000, 3000}, 0, 100},
		{"before first row", []int64{500, 2000, 3000}, 0, 0},
		{"mid duplicate run", []int64{1500, 2000, 3000}, 40, 70},
	} {
		t.Run(tc.name, func(t *testing.T) {
			keys := make([]int64, 4_000)
			for i := range keys {
				keys[i] = int64(i)
			}
			e, err := New(keys, rebalanceConfig())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.RebalanceTo([]int64{1000, 2000, 3000}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.dups; i++ {
				if err := e.Insert(50); err != nil {
					t.Fatal(err)
				}
			}
			want := append([]int64(nil), keys...)
			for i := 0; i < tc.dups; i++ {
				want = append(want, 50)
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

			c := e.Scan(0, 3_999, ScanOptions{Batch: 16})
			var got []int64
			for len(got) < tc.read && c.Next() {
				got = append(got, c.Key())
			}
			if _, err := e.RebalanceTo(tc.bounds); err != nil {
				t.Fatal(err)
			}
			rest, _ := drainCursor(t, c)
			c.Close()
			checkKeys(t, append(got, rest...), want)
		})
	}

	// Installs racing the drains: with no writes, every drain must still
	// yield each key exactly once, whichever fill or skip sees an install.
	t.Run("concurrent installs", func(t *testing.T) {
		keys := make([]int64, 4_000)
		for i := range keys {
			keys[i] = int64(i)
		}
		e, err := New(keys, rebalanceConfig())
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			sets := [][]int64{{500, 2000, 3000}, {1500, 2500, 3500}}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.RebalanceTo(sets[i%2]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for i := 0; i < 10; i++ {
			c := e.Scan(0, 3_999, ScanOptions{Batch: 16})
			got, _ := drainCursor(t, c)
			c.Close()
			checkKeys(t, got, keys)
		}
		close(stop)
		wg.Wait()
	})
}

func checkKeys(t *testing.T, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("drain across installs yielded %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: key %d, want %d", i, got[i], want[i])
		}
	}
}

// TestScanOneFillPerShortSource pins the fill count of a short scan: a
// source whose range fits in one batch is marked done by that batch, so an
// unlimited ~200-row scan over 4 hash shards schedules exactly one fill per
// shard on the fan-out pool, with no trailing empty fill.
func TestScanOneFillPerShortSource(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // the pool is sized at construction
	e, _ := streamTestEngine(t, 20_000, 4, false)
	e.EnableObs()
	fills := func() uint64 {
		s := e.Obs().Snapshot()
		return s.FanSubmits + s.FanInline
	}
	before := fills()
	c := e.Scan(3_000, 3_600, ScanOptions{})
	got, _ := drainCursor(t, c)
	c.Close()
	if len(got) != 201 {
		t.Fatalf("scan yielded %d rows, want 201", len(got))
	}
	if n := fills() - before; n != 4 {
		t.Errorf("scan scheduled %d fills, want 4 (one per shard)", n)
	}
}

// ---------------------------------------------------------------------------
// merge iterator
// ---------------------------------------------------------------------------

// sliceSource is a deterministic mergeSource over a pre-sorted key list;
// each yielded row encodes (source index, position) so tests can check
// stability.
type sliceSource struct {
	src  int
	keys []int64
	i    int
}

func (s *sliceSource) next() (int64, []int32, bool) {
	if s.i >= len(s.keys) {
		return 0, nil, false
	}
	k := s.keys[s.i]
	row := []int32{int32(s.src), int32(s.i)}
	s.i++
	return k, row, true
}

func checkMerge(t *testing.T, lists [][]int64) {
	t.Helper()
	type ref struct {
		key      int64
		src, pos int32
	}
	var want []ref
	srcs := make([]mergeSource, len(lists))
	for si, l := range lists {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		srcs[si] = &sliceSource{src: si, keys: l}
		for pi, k := range l {
			want = append(want, ref{k, int32(si), int32(pi)})
		}
	}
	// Stable sort by key over source-major order = exact merge semantics:
	// equal keys ordered by source index, then source position.
	sort.SliceStable(want, func(i, j int) bool { return want[i].key < want[j].key })

	m := newMergeIter(srcs)
	for i, w := range want {
		k, row, ok := m.next()
		if !ok {
			t.Fatalf("merge ended at %d of %d", i, len(want))
		}
		if k != w.key || row[0] != w.src || row[1] != w.pos {
			t.Fatalf("merge[%d] = (%d, src %d, pos %d), want (%d, %d, %d)",
				i, k, row[0], row[1], w.key, w.src, w.pos)
		}
	}
	if _, _, ok := m.next(); ok {
		t.Fatal("merge yielded past the union")
	}
	if _, _, ok := m.next(); ok {
		t.Fatal("exhausted merge revived")
	}
}

func TestMergeIterBasics(t *testing.T) {
	checkMerge(t, nil)
	checkMerge(t, [][]int64{{}})
	checkMerge(t, [][]int64{{1, 2, 3}})
	checkMerge(t, [][]int64{{}, {}, {}})
	checkMerge(t, [][]int64{{1, 4, 7}, {2, 5, 8}, {3, 6, 9}})
	checkMerge(t, [][]int64{{5, 5, 5}, {5, 5}, {5}})
	checkMerge(t, [][]int64{
		{math.MinInt64, 0, math.MaxInt64},
		{math.MinInt64, math.MaxInt64},
		{-1, 0, 1},
		{},
		{0},
	})
}

// FuzzMergeIterator feeds adversarial source shapes — duplicate keys within
// and across sources, int64 extremes, empty and lopsided sources — and
// checks the merged stream is sorted, stable, and complete.
func FuzzMergeIterator(f *testing.F) {
	f.Add(uint8(1), []byte{})
	f.Add(uint8(3), []byte{0, 0, 0, 0, 0, 0, 0, 1, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Add(uint8(5), func() []byte {
		var b []byte
		for _, k := range []uint64{0, math.MaxUint64, 1 << 63, 42, 42, 42, 7} {
			var w [8]byte
			binary.BigEndian.PutUint64(w[:], k)
			b = append(b, w[:]...)
		}
		return b
	}())
	f.Fuzz(func(t *testing.T, nsrc uint8, data []byte) {
		k := int(nsrc)%8 + 1
		lists := make([][]int64, k)
		rng := rand.New(rand.NewSource(int64(len(data))))
		for i := 0; i+8 <= len(data) && i < 8*512; i += 8 {
			key := int64(binary.BigEndian.Uint64(data[i : i+8]))
			j := rng.Intn(k)
			lists[j] = append(lists[j], key)
		}
		checkMerge(t, lists)
	})
}
