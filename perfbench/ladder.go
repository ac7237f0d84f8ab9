package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"casper"
	"casper/internal/iomodel"
	"casper/internal/shard"
	"casper/internal/table"
	"casper/internal/workload"
)

// replicaReads is the number of reads of each class the replica rung
// replays on the caught-up follower.
const replicaReads = 1000

// replicaMix draws the replica rung's reads: points, aggregates and scans
// in about equal numbers.
var replicaMix = append([]workload.MixEntry{{Kind: workload.Q1PointQuery, Frac: 0.60, Access: workload.Uniform}}, probeMix...)

// txPairs is the number of transaction pairs the wal rung commits: one
// inserts two keys, the next deletes them again.
const txPairs = 100

// runLadder is the traced run. It replays one seeded op stream on every
// rung of the stack — table, one-shard shard, N-shard shard, the casper
// facade, the durable facade (wal) and a follower (replica) — recording a
// span around each call into the rung's exported functions.
func runLadder(w *spec, seed int64, seconds float64, out string, log io.Writer) (*report, *recorder, error) {
	in, err := newInput(w, seed)
	if err != nil {
		return nil, nil, err
	}
	n := max(int(float64(w.ladderOps)*seconds/10), blockLen*len(blockModes))
	st, err := newStream(w, in, w.mix, w.probeEvery, n, seed)
	if err != nil {
		return nil, nil, err
	}
	ops := st.fill(nil, n)
	// The replica rung's reads, answered from the state the stream leaves.
	rst, err := newStream(w, in, replicaMix, 0, 3*replicaReads, seed+3)
	if err != nil {
		return nil, nil, err
	}
	reads := rst.fill(nil, 3*replicaReads)

	procs := runtime.GOMAXPROCS(0)
	tcfg := table.Config{
		Mode:        table.Casper,
		PayloadCols: payloadCols,
		GhostFrac:   0.001,
		Params:      iomodel.EngineDefaults(0),
	}
	rep := &report{metrics: map[string]float64{}}
	rec := newRecorder()
	base := time.Now()
	dom := w.domain()

	// replay runs the stream on one rung and records the rung's per-class
	// metrics.
	replay := func(rung string, tgt target) *client {
		c := newClient(tgt, base, rec, rung)
		c.replay(ops)
		rep.absorb(c)
		rep.check(rung+" state", verifyAll(tgt, in.orc, dom))
		rungMetrics(rep, rung, c)
		fmt.Fprintf(log, "rung %-8s done at %.1f s\n", rung, time.Since(base).Seconds())
		return c
	}

	// table: one table over every row.
	tb, err := table.New(in.keys, tcfg, nil)
	if err != nil {
		return nil, nil, err
	}
	if err := tb.TrainLayout(in.wsample, procs); err != nil {
		return nil, nil, err
	}
	replay("table", &tableTarget{t: tb})

	// shard_1 and shard: the sharded engine with one and with N shards.
	s1, err := shard.New(in.keys, shard.Config{Shards: 1, Table: tcfg})
	if err != nil {
		return nil, nil, err
	}
	if err := s1.Train(in.wsample, procs); err != nil {
		return nil, nil, err
	}
	replay("shard_1", &shardTarget{e: s1})
	rep.fail("close", s1.Close())

	t := time.Now()
	sn, err := shard.New(in.keys, shard.Config{Shards: w.shards, ByRange: w.byRange, Table: tcfg})
	if err != nil {
		return nil, nil, err
	}
	rep.metrics["shard.load_s"] = time.Since(t).Seconds()
	if err := sn.Train(in.wsample, procs); err != nil {
		return nil, nil, err
	}
	c := replay("shard", &shardTarget{e: sn})
	rep.metrics["shard.scan_first_row_ns"] = quantile(c.firstRow, 0.5)
	rep.fail("close", sn.Close())

	// casper: the in-memory facade.
	eng, err := casper.Open(in.keys, w.options(""))
	if err != nil {
		return nil, nil, err
	}
	t = time.Now()
	if err := eng.Train(in.sample, procs); err != nil {
		return nil, nil, err
	}
	rep.metrics["solver.train_s"] = time.Since(t).Seconds()
	var parts, ghosts int
	for _, l := range eng.Layouts() {
		parts += l.Partitions
		for _, g := range l.Ghosts {
			ghosts += g
		}
	}
	rep.metrics["table.partitions"] = float64(parts)
	rep.metrics["table.ghost_slots"] = float64(ghosts)
	c = replay("casper", &engineTarget{e: eng})
	// Median block times, so a stall inside one block does not decide it.
	rep.metrics["trace.overhead_frac"] = ratio(quantile(c.blockNs[0], 0.5), quantile(c.blockNs[1], 0.5)) - 1
	rep.fail("close", eng.Close())

	// wal: the durable facade, then transactions.
	dir := filepath.Join(out, fmt.Sprintf("ladder-%s-%d", w.name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	eng, err = openTrained(w, in, dir)
	if err != nil {
		return nil, nil, err
	}
	s0 := eng.Metrics()
	replay("wal", &engineTarget{e: eng})
	writes := 0
	for i := range ops {
		if ops[i].kind.class() == classWrite {
			writes++
		}
	}
	rep.metrics["txn.commit_ns"] = transactions(eng, rep)
	walCounters(rep, s0, eng.Metrics(), writes)

	// replica: a follower opened on the data dir and caught up over the
	// WAL tail, checked, then read.
	rep.fail("sync wal", eng.SyncWAL())
	t = time.Now()
	f, err := casper.OpenFollower(dir, w.options(""))
	if err != nil {
		return nil, nil, fmt.Errorf("open follower: %w", err)
	}
	if !f.WaitCaughtUp(2 * time.Minute) {
		rep.fail("follower", fmt.Errorf("not caught up after 2m"))
	}
	catchup := time.Since(t).Seconds()
	applied := float64(f.Metrics().Replica.RecordsApplied)
	rep.metrics["replica.catchup_s"] = catchup
	rep.metrics["replica.records_applied"] = applied
	rep.metrics["replica.apply_per_s"] = ratio(applied, catchup)
	rep.check("follower state", verifyAll(&followerTarget{f: f}, in.orc, dom))
	rc := newClient(&followerTarget{f: f}, base, rec, "replica")
	rc.replay(reads)
	rep.absorb(rc)
	for _, cl := range []class{classPoint, classAgg, classScan} {
		rep.metrics["replica."+classNames[cl]+"_ns"] = quantile(rc.layer[cl], 0.5)
	}
	rep.fail("follower", f.Err())
	rep.fail("follower close", f.Close())

	// A final checkpoint, the data dir's size, then recovery by reopening
	// the dir.
	t = time.Now()
	rep.fail("checkpoint", eng.Checkpoint())
	rep.metrics["wal.checkpoint_ms"] = time.Since(t).Seconds() * 1e3
	size, err := dirBytes(dir)
	if err != nil {
		return nil, nil, err
	}
	rep.metrics["wal.disk_bytes_per_row"] = float64(size) / float64(in.orc.rows)
	rep.fail("close", eng.Close())
	t = time.Now()
	re, err := casper.Open(nil, w.options(dir))
	if err != nil {
		return nil, nil, fmt.Errorf("reopen: %w", err)
	}
	rep.metrics["wal.recovery_s"] = time.Since(t).Seconds()
	rep.check("recovered state", verifyAll(&engineTarget{e: re}, in.orc, dom))
	rep.fail("close", re.Close())
	return rep, rec, nil
}

// rungMetrics records a rung's per-class medians: layer time, heap objects
// and heap bytes per op. Medians keep a background rebalance or checkpoint,
// whose allocations land in whichever op's window they overlap, out of the
// typical op's count.
func rungMetrics(rep *report, rung string, c *client) {
	for cl := class(0); cl < nClass; cl++ {
		p := rung + "." + classNames[cl]
		rep.metrics[p+"_ns"] = quantile(c.layer[cl], 0.5)
		rep.metrics[p+"_allocs"] = quantile(c.allocObjs[cl], 0.5)
		rep.metrics[p+"_bytes"] = quantile(c.allocBytes[cl], 0.5)
	}
}

// transactions commits txPairs pairs of transactions: Begin, Insert of
// two keys, Commit, then Begin, Delete of the same two keys, Commit. The
// keys sit at the cold bottom of the domain and the state ends as it began.
// It checks each commit's effect and returns the median Begin-to-Commit
// time in ns.
func transactions(eng *casper.Engine, rep *report) float64 {
	var ns []float64
	for i := 0; i < txPairs; i++ {
		a, b := int64(2*i), int64(2*i+1)
		na, nb := eng.PointQuery(a), eng.PointQuery(b)
		for _, insert := range []bool{true, false} {
			t := time.Now()
			tx := eng.Begin()
			var err error
			if insert {
				err = errors.Join(tx.Insert(a), tx.Insert(b))
			} else {
				err = errors.Join(tx.Delete(a), tx.Delete(b))
			}
			if err != nil {
				tx.Abort()
			} else {
				err = tx.Commit()
			}
			ns = append(ns, float64(time.Since(t)))
			rep.fail("tx", err)
			d := 0
			if insert {
				d = 1
			}
			if ga, gb := eng.PointQuery(a), eng.PointQuery(b); ga != na+d || gb != nb+d {
				rep.check("tx effect", fmt.Errorf("keys %d,%d: %d,%d rows, want %d,%d", a, b, ga, gb, na+d, nb+d))
			}
		}
	}
	return median(ns)
}

// walCounters records the engine counters the durable facade's Metrics
// accumulated over the replay.
func walCounters(rep *report, s0, s1 casper.Snapshot, writes int) {
	rep.metrics["shard.stripe_retries"] = float64(s1.StripeRetries - s0.StripeRetries)
	inline := float64(s1.FanInline - s0.FanInline)
	rep.metrics["shard.fan_inline_frac"] = ratio(inline, inline+float64(s1.FanSubmits-s0.FanSubmits))
	rep.metrics["shard.cursor_batches"] = float64(s1.CursorBatches - s0.CursorBatches)
	rep.metrics["shard.compensation_hits"] = float64(s1.CompensationHits - s0.CompensationHits)
	rep.metrics["wal.bytes_per_write"] = ratio(float64(s1.WAL.Bytes-s0.WAL.Bytes), float64(writes))
	rep.metrics["wal.fsyncs"] = float64(s1.WAL.FsyncNs.Count - s0.WAL.FsyncNs.Count)
	rep.metrics["wal.group_batch_p50"] = float64(s1.WAL.GroupBatch.Quantile(0.5))
}
