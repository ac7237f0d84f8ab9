// Robustness: what happens when the workload the layout was trained for is
// not the workload that arrives (§7.5, Fig. 16)? This example trains Casper
// on a workload whose point queries target the late key domain and whose
// inserts target the early domain, then serves rotated variants of that
// workload and reports the latency penalty — a plateau for small shifts,
// then a cliff.
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"casper"
)

const (
	rows      = 100_000
	domainMax = 1_000_000
)

func main() {
	keys := casper.UniformKeys(rows, domainMax, 9)

	// Train on the opposing-skew workload of Fig. 16a.
	train, err := casper.PresetWorkload("robust-50-50", keys, domainMax, 8_000, 1)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := casper.Open(keys, casper.Options{
		Mode:        casper.ModeCasper,
		PayloadCols: 7,
		ChunkValues: 65_536,
		GhostFrac:   0.01,
		Partitions:  32,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.Train(train, runtime.NumCPU()); err != nil {
		log.Fatal(err)
	}

	eval, err := casper.PresetWorkload("robust-50-50", keys, domainMax, 3_000, 2)
	if err != nil {
		log.Fatal(err)
	}

	measure := func(ops []casper.Op) float64 {
		t0 := time.Now()
		for _, op := range ops {
			eng.Execute(op) // a generated delete may miss; only the time counts
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(len(ops))
	}
	base := measure(eval)

	fmt.Printf("%-18s %-14s %s\n", "rotational shift", "ns/op", "normalized")
	for _, rot := range []float64{0, 0.05, 0.10, 0.20, 0.30, 0.50} {
		ops := eval
		if rot > 0 {
			ops = casper.ShiftWorkload(eval, domainMax, rot)
		}
		ns := measure(ops)
		fmt.Printf("%-18s %-14.0f %.2fx\n", fmt.Sprintf("%.0f%%", rot*100), ns, ns/base)
	}
	fmt.Println("\nSmall shifts are absorbed by the trained layout; large shifts push")
	fmt.Println("inserts into finely partitioned regions and reads into coarse ones,")
	fmt.Println("reproducing the robustness cliff of Fig. 16.")
}
