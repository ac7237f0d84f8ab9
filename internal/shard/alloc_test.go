//go:build !race

// The race detector instruments allocations, so the allocation pin only
// builds without -race.

package shard

import (
	"testing"

	"casper/internal/table"
)

// TestAggregateAllocs pins the aggregate read path's allocation budget:
// RangeCount, RangeSum and MultiRangeSum run the tables' native kernels,
// so a single-shard span costs at most one allocation and a 4-shard hash
// span at most eight (the fan-out's per-shard bookkeeping), independent of
// the rows the range covers.
func TestAggregateAllocs(t *testing.T) {
	filters := []table.PayloadFilter{{Col: 0, Lo: 0, Hi: 1 << 30}, {Col: 2, Lo: -1 << 30, Hi: 1 << 30}}
	for _, tc := range []struct {
		name    string
		byRange bool
		max     float64
	}{
		{"single-shard range span", true, 1},
		{"4-shard hash span", false, 8},
	} {
		e, _ := streamTestEngine(t, 20_000, 4, tc.byRange)
		lo, hi := int64(3_000), int64(3_600) // ~200 rows, inside shard 0 when range-partitioned
		if a, b := e.loadRoute().part.Span(lo, hi); tc.byRange && a != b {
			t.Fatalf("%s: span [%d, %d] covers shards %d..%d", tc.name, lo, hi, a, b)
		}
		for _, op := range []struct {
			name string
			fn   func()
		}{
			{"RangeCount", func() { e.RangeCount(lo, hi) }},
			{"RangeSum", func() { e.RangeSum(lo, hi) }},
			{"MultiRangeSum", func() { e.MultiRangeSum(lo, hi, filters, 1) }},
		} {
			op.fn() // warm the table's position-buffer pool
			if got := testing.AllocsPerRun(200, op.fn); got > tc.max {
				t.Errorf("%s: %s allocates %.1f per call, want <= %.0f", tc.name, op.name, got, tc.max)
			} else {
				t.Logf("%s: %s %.1f allocs", tc.name, op.name, got)
			}
		}
	}
}

// TestScanAllocs pins a streaming scan's fixed per-cursor cost: draining a
// ~200-row range, with LIMIT 10 and with no limit, recycles the pooled
// shard sources (batch arenas, merge scratch, hand-off channel), so a
// single-shard span costs at most 16 allocations and a 4-shard hash span
// at most 32, independent of the rows the range covers.
func TestScanAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		byRange bool
		max     float64
	}{
		{"single-shard range span", true, 16},
		{"4-shard hash span", false, 32},
	} {
		e, _ := streamTestEngine(t, 20_000, 4, tc.byRange)
		lo, hi := int64(3_000), int64(3_600) // ~200 rows, inside shard 0 when range-partitioned
		if a, b := e.loadRoute().part.Span(lo, hi); tc.byRange && a != b {
			t.Fatalf("%s: span [%d, %d] covers shards %d..%d", tc.name, lo, hi, a, b)
		}
		for _, limit := range []int{10, 0} {
			drain := func() {
				c := e.Scan(lo, hi, ScanOptions{Limit: limit})
				for c.Next() {
				}
				c.Close()
			}
			drain() // warm the source and iterator pools
			if got := testing.AllocsPerRun(200, drain); got > tc.max {
				t.Errorf("%s: LIMIT %d drain allocates %.1f per scan, want <= %.0f", tc.name, limit, got, tc.max)
			} else {
				t.Logf("%s: LIMIT %d drain %.1f allocs", tc.name, limit, got)
			}
		}
	}
}
