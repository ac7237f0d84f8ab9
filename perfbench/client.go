package main

import (
	"fmt"
	"runtime"
	"time"

	"casper"
)

// mode is how the client measures an op.
type mode uint8

const (
	// modeTimed records each op's latency, from its first engine call to
	// the end of its last. The untraced run uses only this mode.
	modeTimed mode = iota
	// modeTraced records a span around every layer call and the op's time
	// inside the layer.
	modeTraced
	// modeUntraced runs the op with no per-op recording; only the wall time
	// of its block counts, as the baseline of the tracing overhead.
	modeUntraced
	// modeAlloc reads runtime.MemStats before and after the op (outside
	// any timing) to count its heap allocations.
	modeAlloc
)

// blockModes is the ladder's replay cycle: blocks of blockLen consecutive
// ops take these modes in turn, so every measurement sees the same mix of
// states as the stream evolves.
var blockModes = [...]mode{modeTraced, modeUntraced, modeTraced, modeAlloc}

const blockLen = 64

// client issues ops against one target from one goroutine and checks every
// answer against the oracle's.
type client struct {
	tgt  target
	base time.Time
	rec  *recorder
	// opName and callName are the span names of each op kind on this rung.
	opName, callName    [opUpdate + 1]uint16
	nextName, closeName uint16

	lat      [nClass][]int64 // modeTimed: ns from first call to completion
	layer    [nClass][]int64 // modeTraced: ns inside the layer's calls
	firstRow []int64         // modeTraced: ns from Scan to its first row

	allocObjs, allocBytes [nClass][]int64 // modeAlloc: heap allocations per op

	// blockNs holds, per traced and untraced block, the summed wall time of
	// its ops (span recording included), for the tracing overhead.
	blockNs [2][]int64

	attempted, failed, wrong int
	notes                    []string
	// multis counts MultiRangeSum ops, multiChecked those whose answer the
	// oracle knew and the client checked.
	multis, multiChecked int

	keys    []int64
	filters []casper.Filter
	ms      runtime.MemStats
}

func newClient(tgt target, base time.Time, rec *recorder, rung string) *client {
	c := &client{tgt: tgt, base: base, rec: rec}
	if rec != nil {
		calls := [...]string{"PointQuery", "RangeCount", "RangeSum", "MultiRangeSum", "Scan", "Insert", "Delete", "UpdateKey"}
		kinds := [...]string{"point", "count", "sum", "multi", "scan", "insert", "delete", "update"}
		for k := range calls {
			c.opName[k] = rec.intern("bench.op." + kinds[k])
			c.callName[k] = rec.intern(rung + "." + calls[k])
		}
		c.nextName = rec.intern(rung + ".Cursor.Next")
		c.closeName = rec.intern(rung + ".Cursor.Close")
	}
	return c
}

func (c *client) now() int64 { return int64(time.Since(c.base)) }

func (c *client) note(format string, args ...any) {
	if len(c.notes) < 8 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// do runs one op in mode m; id is its index in the stream. It returns the
// time the op's handling, span recording included, ended.
func (c *client) do(o *op, m mode, id int) int64 {
	c.attempted++
	if m == modeAlloc {
		runtime.ReadMemStats(&c.ms)
		objs, bytes := c.ms.Mallocs, c.ms.TotalAlloc
		c.call(o, m, -1, id)
		runtime.ReadMemStats(&c.ms)
		cl := o.kind.class()
		c.allocObjs[cl] = append(c.allocObjs[cl], int64(c.ms.Mallocs-objs))
		c.allocBytes[cl] = append(c.allocBytes[cl], int64(c.ms.TotalAlloc-bytes))
		return c.now()
	}
	parent := int32(-1)
	if m == modeTraced {
		parent = c.rec.begin(c.opName[o.kind], int32(id), c.now())
	}
	t0, t1 := c.call(o, m, parent, id)
	switch m {
	case modeTimed:
		c.lat[o.kind.class()] = append(c.lat[o.kind.class()], t1-t0)
	case modeTraced:
		c.layer[o.kind.class()] = append(c.layer[o.kind.class()], t1-t0)
		c.rec.end(parent, c.now())
	}
	return c.now()
}

// call issues the op's engine calls, recording child spans under parent in
// modeTraced, then checks the answer. t0 and t1 bracket the engine calls.
func (c *client) call(o *op, m mode, parent int32, id int) (t0, t1 int64) {
	var got int64
	var err error
	t0 = c.now()
	switch o.kind {
	case opPoint:
		got = c.tgt.point(o.key)
	case opCount:
		got = c.tgt.count(o.key, o.key2)
	case opSum:
		got = c.tgt.sum(o.key, o.key2)
	case opMulti:
		c.filters = multiFilters(c.filters, o.key, o.key2)
		got = c.tgt.multi(o.key, o.key2, c.filters)
		c.multis++
		if o.check {
			c.multiChecked++
		}
	case opScan:
		return c.scan(o, m, parent, id, t0)
	case opInsert:
		err = c.tgt.insert(o.key)
	case opDelete:
		err = c.tgt.delete(o.key)
	case opUpdate:
		err = c.tgt.update(o.key, o.key2)
	}
	t1 = c.now()
	if m == modeTraced {
		c.rec.add(c.callName[o.kind], t0, t1, parent, int32(id))
	}
	switch {
	case err != nil:
		c.failed++
		c.note("op %d %v(%d,%d): %v", id, o.kind, o.key, o.key2, err)
	case o.kind < opScan && (o.kind != opMulti || o.check) && got != o.want:
		c.wrong++
		c.note("op %d kind %d [%d,%d]: got %d, want %d", id, o.kind, o.key, o.key2, got, o.want)
	}
	return t0, t1
}

func (c *client) scan(o *op, m mode, parent int32, id int, t0 int64) (int64, int64) {
	c.tgt.scanOpen(o.key, o.key2, int(o.limit))
	ta := c.now()
	c.keys = c.keys[:0]
	for {
		k, ok := c.tgt.scanNext()
		if !ok {
			break
		}
		if m == modeTraced && len(c.keys) == 0 {
			c.firstRow = append(c.firstRow, c.now()-t0)
		}
		c.keys = append(c.keys, k)
	}
	tb := c.now()
	err := c.tgt.scanClose()
	t1 := c.now()
	if m == modeTraced {
		c.rec.add(c.callName[opScan], t0, ta, parent, int32(id))
		c.rec.add(c.nextName, ta, tb, parent, int32(id))
		c.rec.add(c.closeName, tb, t1, parent, int32(id))
	}
	h := newKeyHash()
	for _, k := range c.keys {
		h = h.add(k)
	}
	switch {
	case err != nil:
		c.failed++
		c.note("op %d scan [%d,%d]: %v", id, o.key, o.key2, err)
	case int64(len(c.keys)) != o.want || uint64(h) != o.hash:
		c.wrong++
		c.note("op %d scan [%d,%d] limit %d: got %d rows, want %d (or keys differ)", id, o.key, o.key2, o.limit, len(c.keys), o.want)
	}
	return t0, t1
}

// replay runs ops in the ladder's block cycle.
func (c *client) replay(ops []op) {
	for i := range ops {
		m := blockModes[(i/blockLen)%len(blockModes)]
		begin := c.now()
		end := c.do(&ops[i], m, i)
		if b := int(m) - int(modeTraced); b == 0 || b == 1 {
			if i%blockLen == 0 {
				c.blockNs[b] = append(c.blockNs[b], 0)
			}
			c.blockNs[b][len(c.blockNs[b])-1] += end - begin
		}
	}
}

// verifyAll scans the whole domain on t and compares the key multiset with
// the oracle's.
func verifyAll(t target, orc *oracle, dom int64) error {
	t.scanOpen(0, dom, 0)
	h := newKeyHash()
	n := 0
	for {
		k, ok := t.scanNext()
		if !ok {
			break
		}
		h = h.add(k)
		n++
	}
	if err := t.scanClose(); err != nil {
		return fmt.Errorf("full scan: %w", err)
	}
	wn, wh := orc.scan(0, dom, 0)
	if n != wn || uint64(h) != wh {
		return fmt.Errorf("full scan: %d rows, want %d (or keys differ)", n, wn)
	}
	return nil
}
