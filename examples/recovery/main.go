// Recovery: open a durable engine, ingest and train, kill it without a
// clean shutdown, and reopen the directory — rows, payloads, the trained
// layout, and the epoch oracle all come back without re-running the solver.
// The engine's durability stack is a per-shard write-ahead log (CRC-framed
// records with the same row identity the retrain journal uses) plus chunk
// checkpoints cut under the cross-shard move gate.
package main

import (
	"fmt"
	"log"
	"os"

	"casper"
)

func main() {
	const (
		rows      = 100_000
		domainMax = 1_000_000
	)
	dir, err := os.MkdirTemp("", "casper-recovery-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	opts := casper.Options{
		Mode:   casper.ModeCasper,
		Shards: 4,
		Dir:    dir,
		Sync:   casper.SyncModeAlways, // every acknowledged write is durable
	}

	// 1. Bootstrap: load keys and persist the initial state.
	keys := casper.UniformKeys(rows, domainMax, 42)
	eng, err := casper.Open(keys, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bootstrapped %d rows into %s (%d shards, WAL fsync=always)\n",
		eng.Len(), dir, eng.Shards())

	// 2. Train the layout and mutate: the trained partitioning lands in the
	//    checkpoints, the writes in the per-shard WALs.
	sample, err := casper.PresetWorkload(casper.HybridSkewed, keys, domainMax, 5_000, 1)
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.Train(sample, 2); err != nil {
		log.Fatal(err)
	}
	layouts := len(eng.Layouts())
	for i := 0; i < 2; i++ {
		if err := eng.Insert(domainMax + 1); err != nil {
			log.Fatal(err)
		}
	}
	if err := eng.Delete(keys[0]); err != nil {
		log.Fatal(err)
	}
	// Move a row until the epoch bumps: hash routing decides shard
	// placement, and only a cross-shard move commits through the epoch
	// protocol (and the MoveOut/MoveIn WAL pair) we want to demonstrate.
	moved := int64(0)
	for i := 1; eng.Epoch() == 0; i++ {
		moved = domainMax + 1 + int64(i)
		if err := eng.UpdateKey(keys[i], moved); err != nil {
			log.Fatal(err)
		}
	}
	wantLen, wantEpoch := eng.Len(), eng.Epoch()
	fmt.Printf("trained %d chunk layouts; mutated to %d rows at epoch %d\n",
		layouts, wantLen, wantEpoch)

	// 3. "Crash": drop the engine on the floor. No Close, no final sync —
	//    recovery must work from the checkpoint + WAL tail alone.
	eng = nil
	fmt.Println("crashing without shutdown...")

	// 4. Recover: Open sees the directory's manifest and ignores the key
	//    argument, replaying the WAL tail onto the newest checkpoints.
	rec, err := casper.Open(nil, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer rec.Close()
	fmt.Printf("recovered %d rows (want %d) at epoch >= %d (got %d)\n",
		rec.Len(), wantLen, wantEpoch, rec.Epoch())
	fmt.Printf("trained layouts restored without the solver: %d chunks\n", len(rec.Layouts()))
	for _, probe := range []struct {
		name string
		got  int
		want int
	}{
		{"duplicate inserts", rec.PointQuery(domainMax + 1), 2},
		{"deleted row", rec.PointQuery(keys[0]), countOf(keys, keys[0]) - 1},
		{"moved row at new key", rec.PointQuery(moved), 1},
	} {
		status := "ok"
		if probe.got != probe.want {
			status = "MISMATCH"
		}
		fmt.Printf("  %-22s %d (want %d) %s\n", probe.name, probe.got, probe.want, status)
	}

	// 5. The recovered engine is live: it keeps appending to fresh WAL
	//    segments and checkpointing.
	if err := rec.Insert(domainMax + 3); err != nil {
		log.Fatal(err)
	}
	if err := rec.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("recovered engine accepted new writes and checkpointed; done")
}

// countOf counts occurrences of k in keys (UniformKeys can duplicate).
func countOf(keys []int64, k int64) int {
	n := 0
	for _, v := range keys {
		if v == k {
			n++
		}
	}
	return n
}
