package main

import (
	"casper"
	"casper/internal/shard"
	"casper/internal/table"
)

// target is one rung of the stack: the exported read and write calls of a
// layer, forwarded without extra work so a span around a target call times
// the layer. A scan is three calls: scanOpen, scanNext until false, and
// scanClose. Targets are used from one goroutine.
type target interface {
	point(k int64) int64
	count(lo, hi int64) int64
	sum(lo, hi int64) int64
	multi(lo, hi int64, f []casper.Filter) int64
	scanOpen(lo, hi int64, limit int)
	scanNext() (int64, bool)
	scanClose() error
	insert(k int64) error
	delete(k int64) error
	update(old, new int64) error
}

// tableTarget is the `table` rung: one table holding every row.
type tableTarget struct {
	t     *table.Table
	it    *table.ScanIter
	buf   table.RowBuf
	i     int
	left  int
	batch int
	fs    []table.PayloadFilter
}

func (x *tableTarget) point(k int64) int64         { return int64(x.t.PointQuery(k)) }
func (x *tableTarget) count(lo, hi int64) int64    { return int64(x.t.RangeCount(lo, hi)) }
func (x *tableTarget) sum(lo, hi int64) int64      { return x.t.RangeSum(lo, hi) }
func (x *tableTarget) insert(k int64) error        { x.t.Insert(k); return nil }
func (x *tableTarget) delete(k int64) error        { return x.t.Delete(k) }
func (x *tableTarget) update(old, new int64) error { return x.t.UpdateKey(old, new) }

func (x *tableTarget) multi(lo, hi int64, f []casper.Filter) int64 {
	x.fs = tableFilters(x.fs, f)
	return x.t.MultiRangeSum(lo, hi, x.fs, multiSumCol)
}

// scanOpen mirrors what a shard cursor does per shard: a ScanRange
// iterator drained in batches of min(limit, table.DefaultScanBatch).
func (x *tableTarget) scanOpen(lo, hi int64, limit int) {
	x.it = x.t.ScanRange(lo, hi)
	x.buf.Reset()
	x.i, x.left = 0, limit
	if limit <= 0 {
		x.left = -1 // no limit: left never reaches 0
	}
	x.batch = table.DefaultScanBatch
	if limit > 0 && limit < x.batch {
		x.batch = limit
	}
}

func (x *tableTarget) scanNext() (int64, bool) {
	if x.left == 0 {
		return 0, false
	}
	if x.i == x.buf.Len() {
		if !x.it.NextBatch(&x.buf, x.batch) {
			return 0, false
		}
		x.i = 0
	}
	k := x.buf.Keys[x.i]
	x.i++
	x.left--
	return k, true
}

func (x *tableTarget) scanClose() error { x.it.Close(); x.it = nil; return nil }

func tableFilters(dst []table.PayloadFilter, f []casper.Filter) []table.PayloadFilter {
	dst = dst[:0]
	for _, g := range f {
		dst = append(dst, table.PayloadFilter{Col: g.Col, Lo: g.Lo, Hi: g.Hi})
	}
	return dst
}

// shardTarget is a `shard` rung: the sharded engine below the facade.
type shardTarget struct {
	e  *shard.Engine
	c  *shard.Cursor
	fs []table.PayloadFilter
}

func (x *shardTarget) point(k int64) int64         { return int64(x.e.PointQuery(k)) }
func (x *shardTarget) count(lo, hi int64) int64    { return int64(x.e.RangeCount(lo, hi)) }
func (x *shardTarget) sum(lo, hi int64) int64      { return x.e.RangeSum(lo, hi) }
func (x *shardTarget) insert(k int64) error        { x.e.Insert(k); return nil }
func (x *shardTarget) delete(k int64) error        { return x.e.Delete(k) }
func (x *shardTarget) update(old, new int64) error { return x.e.UpdateKey(old, new) }

func (x *shardTarget) multi(lo, hi int64, f []casper.Filter) int64 {
	x.fs = tableFilters(x.fs, f)
	return x.e.MultiRangeSum(lo, hi, x.fs, multiSumCol)
}

func (x *shardTarget) scanOpen(lo, hi int64, limit int) {
	x.c = x.e.Scan(lo, hi, shard.ScanOptions{Limit: limit})
}
func (x *shardTarget) scanNext() (int64, bool) { return cursorNext(x.c) }
func (x *shardTarget) scanClose() error        { return cursorClose(&x.c) }

func cursorNext(c *casper.Cursor) (int64, bool) {
	if !c.Next() {
		return 0, false
	}
	return c.Key(), true
}

func cursorClose(c **casper.Cursor) error {
	err := (*c).Err()
	(*c).Close()
	*c = nil
	return err
}

// engineTarget is the `casper` and `wal` rungs: the public facade.
type engineTarget struct {
	e *casper.Engine
	c *casper.Cursor
}

func (x *engineTarget) point(k int64) int64         { return int64(x.e.PointQuery(k)) }
func (x *engineTarget) count(lo, hi int64) int64    { return int64(x.e.RangeCount(lo, hi)) }
func (x *engineTarget) sum(lo, hi int64) int64      { return x.e.RangeSum(lo, hi) }
func (x *engineTarget) insert(k int64) error        { x.e.Insert(k); return nil }
func (x *engineTarget) delete(k int64) error        { return x.e.Delete(k) }
func (x *engineTarget) update(old, new int64) error { return x.e.UpdateKey(old, new) }

func (x *engineTarget) multi(lo, hi int64, f []casper.Filter) int64 {
	return x.e.MultiRangeSum(lo, hi, f, multiSumCol)
}

func (x *engineTarget) scanOpen(lo, hi int64, limit int) {
	x.c = x.e.Scan(lo, hi, casper.ScanOptions{Limit: limit})
}
func (x *engineTarget) scanNext() (int64, bool) { return cursorNext(x.c) }
func (x *engineTarget) scanClose() error        { return cursorClose(&x.c) }

// followerTarget is the `replica` rung: reads on a caught-up follower.
// Writes fail with casper.ErrReadOnly; the replica rung issues none.
type followerTarget struct {
	f *casper.Follower
	c *casper.Cursor
}

func (x *followerTarget) point(k int64) int64         { return int64(x.f.PointQuery(k)) }
func (x *followerTarget) count(lo, hi int64) int64    { return int64(x.f.RangeCount(lo, hi)) }
func (x *followerTarget) sum(lo, hi int64) int64      { return x.f.RangeSum(lo, hi) }
func (x *followerTarget) insert(k int64) error        { return x.f.Insert(k) }
func (x *followerTarget) delete(k int64) error        { return x.f.Delete(k) }
func (x *followerTarget) update(old, new int64) error { return x.f.UpdateKey(old, new) }

func (x *followerTarget) multi(lo, hi int64, f []casper.Filter) int64 {
	return x.f.MultiRangeSum(lo, hi, f, multiSumCol)
}

func (x *followerTarget) scanOpen(lo, hi int64, limit int) {
	x.c = x.f.Scan(lo, hi, casper.ScanOptions{Limit: limit})
}
func (x *followerTarget) scanNext() (int64, bool) { return cursorNext(x.c) }
func (x *followerTarget) scanClose() error        { return cursorClose(&x.c) }
