// Hybrid dashboard: the paper's motivating scenario (§1) — an analytical
// application serving a regular dashboard report (TPC-H-Q6-style multi-
// column range aggregations) while continuously ingesting new rows. The
// example compares three designs on the same operation stream:
//
//	StateOfArt        sorted column + delta store (the baseline)
//	Casper            workload-trained single table (Fig. 1 at laptop scale)
//	Casper ×8 shards  the sharded engine: batched async ingest, fan-out
//	                  dashboard queries, and background drift-triggered
//	                  retraining that re-lays shards out without blocking
//	                  either path
//
// The timing panel is driven by the engine's own metrics registry rather
// than stopwatches around the call sites: per-operation throughput comes
// from diffing two Snapshots, tail latency from the sampled power-of-two
// histograms (Quantile returns a bucket upper bound), and the lifecycle
// trail — retrain swaps, rebalance installs — from the event journal.
//
// With -http the sharded engine stays up after the comparison and serves
// the same numbers live on /metrics (JSON and Prometheus) and /events.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"time"

	"casper"
	"casper/internal/obs/httpdebug"
)

const (
	rows      = 150_000
	domainMax = 1_500_000
	ingestPer = 400 // inserts per batch
	reportPer = 40  // dashboard queries per batch
)

type config struct {
	label   string
	mode    casper.Mode
	shards  int
	auto    bool // background retraining
	batches int  // the sharded run is long enough for drift to trigger
}

func main() {
	httpAddr := flag.String("http", "", "after the comparison, serve live /metrics and /events on this address")
	flag.Parse()

	keys := casper.UniformKeys(rows, domainMax, 7)
	var last *casper.Engine

	for _, cfg := range []config{
		{"StateOfArt", casper.ModeStateOfArt, 1, false, 5},
		{"Casper", casper.ModeCasper, 1, false, 5},
		{"Casper x8", casper.ModeCasper, 8, true, 40},
	} {
		eng, err := casper.Open(keys, casper.Options{
			Mode:        cfg.mode,
			PayloadCols: 7,
			ChunkValues: 65_536,
			GhostFrac:   0.01,
			Partitions:  32,
			Shards:      cfg.shards,
		})
		if err != nil {
			log.Fatal(err)
		}
		if cfg.mode == casper.ModeCasper {
			// Train on yesterday's traffic: recent-skewed ingest plus the
			// dashboard's range queries.
			sample, err := casper.PresetWorkload(casper.HybridSkewed, keys, domainMax, 8_000, 3)
			if err != nil {
				log.Fatal(err)
			}
			if err := eng.Train(sample, runtime.NumCPU()); err != nil {
				log.Fatal(err)
			}
		}
		if cfg.auto {
			// Today's traffic will drift; let the background worker chase
			// it with shadow retrains instead of blocking the serving path.
			if err := eng.StartAutoRetrain(casper.RetrainPolicy{
				CheckEvery: 5 * time.Millisecond,
				MinOps:     300,
				MaxDrift:   0.05,
			}); err != nil {
				log.Fatal(err)
			}
		}

		// The engine measures itself: the first Metrics call enables the
		// registry; the pre-loop snapshot is the diff baseline.
		before := eng.Metrics()
		rng := rand.New(rand.NewSource(11))
		start := time.Now()
		for b := 0; b < cfg.batches; b++ {
			// Continuous ingest of recent (high-key) data. The sharded
			// engine takes the batched write path: ops grouped by shard
			// and the groups applied on parallel goroutines.
			ingest := make([]casper.Op, ingestPer)
			for i := range ingest {
				ingest[i] = casper.Op{Kind: casper.Insert, Key: domainMax - rng.Int63n(domainMax/10)}
			}
			if cfg.shards > 1 {
				if _, err := eng.ApplyBatch(ingest); err != nil {
					log.Fatal(err)
				}
			} else {
				for _, op := range ingest {
					if err := eng.Insert(op.Key); err != nil {
						log.Fatal(err)
					}
				}
			}

			// Dashboard refresh: revenue-style Q6 aggregations.
			for i := 0; i < reportPer; i++ {
				lo := rng.Int63n(domainMax * 9 / 10)
				eng.MultiRangeSum(lo, lo+domainMax/50, []casper.Filter{
					{Col: 1, Lo: 0, Hi: 1 << 30},        // discount band
					{Col: 2, Lo: -1 << 30, Hi: 1 << 30}, // quantity band
				}, 3)
			}
		}
		elapsed := time.Since(start)
		eng.StopAutoRetrain()
		after := eng.Metrics()

		extra := ""
		if cfg.auto {
			extra = fmt.Sprintf("   %d bg retrains", eng.Retrains())
		}
		fmt.Printf("%s%s\n", cfg.label, extra)
		printOpsPanel(before, after, elapsed)
		if cfg.auto {
			printEvents(eng, 10)
		}
		fmt.Println()
		if cfg.shards > 1 {
			last = eng
		}
	}
	fmt.Println("Casper keeps ingest cheap (ghost values in the hot partitions) without")
	fmt.Println("giving up the dashboard's scan performance (fine partitions where queries")
	fmt.Println("land); sharding adds parallel ingest waves and non-blocking re-layout.")

	if *httpAddr != "" && last != nil {
		fmt.Printf("\nserving live /metrics and /events on %s — Ctrl-C to stop\n", *httpAddr)
		go backgroundLoad(last)
		log.Fatal(http.ListenAndServe(*httpAddr, httpdebug.Handler(last)))
	}
}

// printOpsPanel renders per-operation throughput and tail latency from the
// diff of two metric snapshots: counts are monotonic, so (after − before) /
// elapsed is this run's rate, and the sampled latency histograms give p50
// and p99 as power-of-two bucket upper bounds.
func printOpsPanel(before, after casper.Snapshot, elapsed time.Duration) {
	names := make([]string, 0, len(after.Ops))
	for name := range after.Ops {
		if after.Ops[name].Count > before.Ops[name].Count {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		n := after.Ops[name].Count - before.Ops[name].Count
		lat := after.Ops[name].LatencyNs
		fmt.Printf("  %-12s %8d ops  %9.0f ops/s   p50 %8s   p99 %8s\n",
			name, n, float64(n)/elapsed.Seconds(),
			fmtNs(int64(lat.Quantile(0.50))), fmtNs(int64(lat.Quantile(0.99))))
	}
}

// printEvents prints the newest n journal entries — the lifecycle trail the
// background workers left while the serving path kept running.
func printEvents(eng *casper.Engine, n int) {
	events := eng.Events(0)
	if len(events) > n {
		events = events[len(events)-n:]
	}
	if len(events) == 0 {
		return
	}
	fmt.Printf("  last %d lifecycle events:\n", len(events))
	for _, ev := range events {
		detail := ""
		if ev.Rows > 0 {
			detail += fmt.Sprintf(" rows=%d", ev.Rows)
		}
		if ev.DurNs > 0 {
			detail += fmt.Sprintf(" dur=%s", fmtNs(ev.DurNs))
		}
		if ev.Note != "" {
			detail += " " + ev.Note
		}
		fmt.Printf("    #%-4d %-18s shard=%-2d%s\n", ev.Seq, ev.Kind, ev.Shard, detail)
	}
}

func fmtNs(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

// backgroundLoad keeps a light mixed workload running so the live endpoint
// has moving numbers to show.
func backgroundLoad(eng *casper.Engine) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; ; i++ {
		lo := rng.Int63n(domainMax * 9 / 10)
		eng.RangeCount(lo, lo+domainMax/100)
		eng.PointQuery(rng.Int63n(domainMax))
		if i%4 == 0 {
			if err := eng.Insert(domainMax - rng.Int63n(domainMax/10)); err != nil {
				log.Fatal(err)
			}
		}
		if i%32 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
	}
}
