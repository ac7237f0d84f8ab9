// Quickstart: load a column, train Casper's layout on a sampled workload,
// and watch point queries, range queries, inserts, deletes, and updates run
// against the optimized partitioned column (the operations of Figs. 3–4 of
// the paper).
package main

import (
	"fmt"
	"log"
	"runtime"

	"casper"
)

func main() {
	const (
		rows      = 200_000
		domainMax = 2_000_000
	)

	// 1. Load 200k uniformly distributed keys.
	keys := casper.UniformKeys(rows, domainMax, 42)
	eng, err := casper.Open(keys, casper.Options{
		Mode:        casper.ModeCasper,
		PayloadCols: 7,
		ChunkValues: 65_536,
		GhostFrac:   0.01, // 1% ghost value budget
		Partitions:  32,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d rows into %d column chunks (%s)\n",
		eng.Len(), eng.Chunks(), eng.CostParams())

	// 2. Sample the expected workload: skewed hybrid mix of point queries
	//    and inserts with 1% updates (the paper's Fig. 13a mix).
	sample, err := casper.PresetWorkload(casper.HybridSkewed, keys, domainMax, 10_000, 1)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Solve for the optimal layout and apply it.
	if err := eng.Train(sample, runtime.NumCPU()); err != nil {
		log.Fatal(err)
	}
	for _, l := range eng.Layouts()[:1] {
		fmt.Printf("chunk %d: %d partitions, sizes %v..., ghosts %v...\n",
			l.Chunk, l.Partitions, head(l.Sizes, 6), head(l.Ghosts, 6))
	}

	// 4. Run the five fundamental operations.
	k := keys[rows/2]
	fmt.Printf("point query key=%d -> %d rows\n", k, eng.PointQuery(k))
	fmt.Printf("range count [%d, %d] -> %d rows\n", domainMax/4, domainMax/2,
		eng.RangeCount(int64(domainMax/4), int64(domainMax/2)))
	fmt.Printf("range sum   [%d, %d] -> %d\n", domainMax/4, domainMax/2,
		eng.RangeSum(int64(domainMax/4), int64(domainMax/2)))

	if err := eng.Insert(777_777); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inserted 777777 -> point query finds %d\n", eng.PointQuery(777_777))

	if err := eng.UpdateKey(777_777, 888_888); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("updated 777777 -> 888888; old=%d new=%d\n",
		eng.PointQuery(777_777), eng.PointQuery(888_888))

	if err := eng.Delete(888_888); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deleted 888888 -> point query finds %d\n", eng.PointQuery(888_888))

	// 5. Transactions: snapshot isolation with first-committer-wins.
	tx := eng.Begin()
	if err := tx.Insert(999_999); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inside txn: storage sees %d (uncommitted writes are buffered)\n",
		eng.PointQuery(999_999))
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after commit: storage sees %d\n", eng.PointQuery(999_999))
}

func head(xs []int, n int) []int {
	if len(xs) < n {
		return xs
	}
	return xs[:n]
}
