// Command casperbench regenerates the tables and figures of "Optimal Column
// Layout for Hybrid Workloads" (PVLDB 2019), and measures the sharded
// engine's multi-client throughput.
//
// Usage:
//
//	casperbench [-fig N | -table N | -all | -throughput | -durable | -rebalance | -scan | -replica] [-rows N] [-ops N] [-workers N]
//	casperbench -throughput -cpus 1,2,4,8 [-out BENCH_throughput.json]
//	casperbench -scan [-rows N] [-out BENCH_scan.json]
//	casperbench -replica [-rows N] [-ops N] [-out BENCH_replica.json]
//	casperbench -scenario NAME [-rows N] [-ops N] [-out BENCH_scenarios.json]
//	casperbench -http :8080               # live /metrics (JSON + Prometheus) and /events
//	casperbench -validate-metrics http://localhost:8080
//	casperbench -obsbench [-out BENCH_obs.json]
//
// Examples:
//
//	casperbench -all                      # every experiment, default scale
//	casperbench -fig 12                   # six layouts × six workloads
//	casperbench -fig 9 -rows 1000000      # model verification on a 1M chunk
//	casperbench -table 1                  # the design-space table
//	casperbench -throughput -shards 1,2,4,8 -workers 8
//	casperbench -throughput -cpus 1,2,4,8 # worker sweep, JSON artifact
//	casperbench -durable -rows 200000     # WAL overhead per fsync policy + recovery time
//	casperbench -rebalance -rows 200000   # skewed-drift scenario: quantile vs minimal proposer
//	casperbench -scan -rows 200000        # streaming cursor sweep: LIMIT × result size
//	casperbench -replica -rows 200000     # follower lag vs ingest rate; asserts lag -> 0 after quiesce
//	casperbench -scenario flashcrowd      # 50x write spike, uncontrolled vs admission-controlled
//	casperbench -scenario all             # every adversarial scenario
//
// The -scenario mode replays a time-phased adversarial workload (zipf-hot,
// flashcrowd, diurnal, tenant-skew, htap-sweep, or "all") against a durable
// range-sharded engine with the full background cast running concurrently:
// auto-retrainer, auto-rebalancer, a periodic checkpointer, and a follower
// tailing the WAL. Each phase is offered at its spec rate (a Rate-1 phase
// offers 4k ops/s; flashcrowd's crowd phase 50x that). The artifact
// (default BENCH_scenarios.json) records per-phase and per-run ops/s,
// client-observed p99, rows moved by rebalancing, admission counters and
// shed fraction, and follower lag. flashcrowd runs twice — uncontrolled,
// then with admission control — so the artifact shows the token bucket
// bounding p99 during the spike at the cost of shedding the crowd's excess
// writes with ErrOverload.
//
// The -scan sweep drives streaming cursors over ranges of three result
// sizes under LIMIT 10, 1000, and unlimited, reporting scans/s, first-row
// latency, and heap bytes allocated per scan, next to a materialized
// baseline that collects the whole result before serving its first row.
// The JSON artifact (default BENCH_scan.json) records the same numbers;
// the point of the report is that a LIMIT-10 cursor over a huge range
// allocates O(batch) bytes and reaches its first row orders of magnitude
// before the materialized path.
//
// The -rebalance report compares the two boundary-proposal strategies on
// the same drifted fleet, one column per metric:
//
//	rows-moved       rows migrated between shards (minimal ~ drift size)
//	stragglers       rows caught by the publish-window rescan of the
//	                 changed ownership intervals (writes that landed
//	                 between the staging batches)
//	pause-ms         exclusive publish+install window; under minimal the
//	                 straggler rescan walks only the changed intervals, so
//	                 the pause scales with drift, not table size
//	bounds-changed   boundaries rewritten vs total (quantile rewrites all,
//	                 minimal only those around breaching shards)
//	skew             max/mean shard row-count ratio before -> after
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"casper"
	"casper/internal/experiments"
)

func main() {
	var (
		fig     = flag.Int("fig", 0, "figure number to regenerate (1,2,9,11,12,13,14,15,16)")
		tab     = flag.Int("table", 0, "table number to regenerate (1)")
		all     = flag.Bool("all", false, "run every experiment")
		abl     = flag.Bool("ablations", false, "run the design-choice ablations")
		comp    = flag.Bool("compression", false, "run the compression synergy report (§6.2)")
		gran    = flag.Bool("granularity", false, "run the histogram granularity sweep (§4.3)")
		thr     = flag.Bool("throughput", false, "measure sharded-engine throughput across shard counts")
		durable = flag.Bool("durable", false, "measure durable ingest throughput per WAL sync policy and recovery time")
		rebal   = flag.Bool("rebalance", false, "run the skewed-drift shard rebalancing scenario")
		replica = flag.Bool("replica", false, "measure WAL-shipping replication lag vs ingest rate; emits BENCH_replica.json")
		scen    = flag.String("scenario", "", "replay an adversarial scenario (zipf-hot, flashcrowd, diurnal, tenant-skew, htap-sweep, or 'all') with the full background cast live; emits BENCH_scenarios.json")
		scan    = flag.Bool("scan", false, "run the streaming-scan sweep (LIMIT x result size); emits a JSON artifact")
		httpOn  = flag.String("http", "", "serve live /metrics and /events on this address (e.g. :8080) over a loaded engine")
		valMet  = flag.String("validate-metrics", "", "validate a running metrics endpoint (base URL, e.g. http://localhost:8080)")
		obench  = flag.Bool("obsbench", false, "measure metric-collection overhead (disabled vs enabled); emits BENCH_obs.json")
		shards  = flag.String("shards", "1,2,4,8", "shard counts for -throughput (comma separated)")
		cpus    = flag.String("cpus", "", "worker/GOMAXPROCS sweep for -throughput (comma separated); emits a JSON artifact")
		out     = flag.String("out", "BENCH_throughput.json", "artifact path for the -cpus sweep")
		rows    = flag.Int("rows", 0, "initial table rows (default 200k)")
		ops     = flag.Int("ops", 0, "measured operations per run (default 4k)")
		workers = flag.Int("workers", runtime.NumCPU(), "execution/optimization parallelism")
		seed    = flag.Int64("seed", 42, "workload generator seed")
	)
	flag.Parse()

	sc := experiments.DefaultScale()
	sc.Workers = *workers
	sc.Seed = *seed
	if *rows > 0 {
		sc.Rows = *rows
	}
	if *ops > 0 {
		sc.Ops = *ops
		sc.TrainOps = *ops
	}

	switch {
	case *httpOn != "":
		if err := runHTTPServe(*httpOn, sc.Rows, sc.Seed); err != nil {
			fmt.Fprintf(os.Stderr, "casperbench: %v\n", err)
			os.Exit(1)
		}
	case *valMet != "":
		if err := runValidateMetrics(*valMet); err != nil {
			fmt.Fprintf(os.Stderr, "casperbench: %v\n", err)
			os.Exit(1)
		}
	case *obench:
		outPath := *out
		if !flagWasSet("out") {
			outPath = "BENCH_obs.json"
		}
		if err := runObsBench(sc.Rows, *ops, sc.Seed, outPath); err != nil {
			fmt.Fprintf(os.Stderr, "casperbench: %v\n", err)
			os.Exit(1)
		}
	case *thr && *cpus != "":
		if err := runThroughputSweep(*cpus, sc.Rows, *ops, sc.Seed, *out); err != nil {
			fmt.Fprintf(os.Stderr, "casperbench: %v\n", err)
			os.Exit(1)
		}
	case *thr:
		if err := runThroughput(*shards, sc.Rows, *ops, *workers, sc.Seed); err != nil {
			fmt.Fprintf(os.Stderr, "casperbench: %v\n", err)
			os.Exit(1)
		}
	case *durable:
		if err := runDurable(sc.Rows, *ops, sc.Seed); err != nil {
			fmt.Fprintf(os.Stderr, "casperbench: %v\n", err)
			os.Exit(1)
		}
	case *rebal:
		if err := runRebalance(sc.Rows, *ops, sc.Seed); err != nil {
			fmt.Fprintf(os.Stderr, "casperbench: %v\n", err)
			os.Exit(1)
		}
	case *replica:
		outPath := *out
		if !flagWasSet("out") {
			outPath = "BENCH_replica.json"
		}
		if err := runReplica(sc.Rows, *ops, sc.Seed, outPath); err != nil {
			fmt.Fprintf(os.Stderr, "casperbench: %v\n", err)
			os.Exit(1)
		}
	case *scen != "":
		outPath := *out
		if !flagWasSet("out") {
			outPath = "BENCH_scenarios.json"
		}
		if err := runScenario(*scen, *rows, *ops, sc.Seed, outPath); err != nil {
			fmt.Fprintf(os.Stderr, "casperbench: %v\n", err)
			os.Exit(1)
		}
	case *scan:
		outPath := *out
		if !flagWasSet("out") {
			outPath = "BENCH_scan.json"
		}
		if err := runScan(sc.Rows, sc.Seed, outPath); err != nil {
			fmt.Fprintf(os.Stderr, "casperbench: %v\n", err)
			os.Exit(1)
		}
	case *all:
		for _, r := range experiments.All(sc) {
			fmt.Println(r)
		}
	case *abl:
		fmt.Println(experiments.Ablations(sc))
	case *comp:
		fmt.Println(experiments.ExtCompression(sc))
	case *gran:
		fmt.Println(experiments.ExtGranularity(sc))
	case *tab == 1:
		fmt.Println(experiments.Table1())
	case *fig != 0:
		var runner func(experiments.Scale) experiments.Report
		switch *fig {
		case 1:
			runner = experiments.Fig1
		case 2:
			runner = experiments.Fig2
		case 9:
			runner = experiments.Fig9
		case 11:
			runner = experiments.Fig11
		case 12:
			runner = experiments.Fig12
		case 13:
			runner = experiments.Fig13
		case 14:
			runner = experiments.Fig14
		case 15:
			runner = experiments.Fig15
		case 16:
			runner = experiments.Fig16
		default:
			fmt.Fprintf(os.Stderr, "casperbench: no experiment for figure %d (figures 3-8 and 10 are illustrative)\n", *fig)
			os.Exit(2)
		}
		fmt.Println(runner(sc))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runDurable measures the WAL's write-path overhead: insert-only ingest
// through an in-memory baseline and through durable engines under each
// fsync policy, plus the time to recover the durable state with a fresh
// casper.Open. Data directories live under a temp root and are removed.
func runDurable(rows, measuredOps int, seed int64) error {
	if rows <= 0 {
		rows = 200_000
	}
	if measuredOps <= 0 {
		measuredOps = 50_000
	}
	root, err := os.MkdirTemp("", "casperbench-durable-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	keys := casper.UniformKeys(rows, int64(rows)*10, seed)
	batch := make([]casper.Op, measuredOps)
	for i := range batch {
		batch[i] = casper.Op{Kind: casper.Insert, Key: int64(seed*1e9) + int64(i)}
	}

	fmt.Printf("durable ingest: %d initial rows, %d inserts per run\n\n", rows, measuredOps)
	configs := []struct {
		name string
		opts func(casper.Options) casper.Options
	}{
		{"memory", func(o casper.Options) casper.Options { return o }},
		{"sync=none", func(o casper.Options) casper.Options {
			o.Dir, o.Sync = filepath.Join(root, "none"), casper.SyncModeNone
			return o
		}},
		{"sync=interval", func(o casper.Options) casper.Options {
			o.Dir, o.Sync = filepath.Join(root, "interval"), casper.SyncModeInterval
			return o
		}},
		{"sync=always", func(o casper.Options) casper.Options {
			o.Dir, o.Sync = filepath.Join(root, "always"), casper.SyncModeAlways
			return o
		}},
	}
	var base float64
	for _, c := range configs {
		opts := c.opts(casper.Options{Mode: casper.ModeCasper, Shards: 4})
		eng, err := casper.Open(keys, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		start := time.Now()
		if _, err := eng.ApplyBatch(batch); err != nil {
			return fmt.Errorf("%s ingest: %w", c.name, err)
		}
		opsPerSec := float64(len(batch)) / time.Since(start).Seconds()
		eng.Close()
		if base == 0 {
			base = opsPerSec
		}
		line := fmt.Sprintf("%-14s %12.0f ops/s   %5.2fx of memory", c.name, opsPerSec, opsPerSec/base)
		if opts.Dir != "" {
			start = time.Now()
			rec, err := casper.Open(nil, opts)
			if err != nil {
				return fmt.Errorf("%s recovery: %w", c.name, err)
			}
			line += fmt.Sprintf("   recovery %8.1fms (%d rows)", time.Since(start).Seconds()*1e3, rec.Len())
			rec.Close()
		}
		fmt.Println(line)
	}
	return nil
}

// runRebalance drives the skewed-drift scenario once per proposal strategy:
// a range-sharded engine is loaded uniformly, the write distribution then
// drifts entirely past one end of the key range (piling the new rows onto
// the last shard), and one rebalance re-splits the boundaries. The report
// compares the exhaustive quantile baseline against the minimal-movement
// default side by side: rows moved, stragglers caught by the delta-bounded
// publish rescan, the exclusive publish-window pause (which the minimal
// strategy measures over the changed intervals only), how many boundaries
// actually changed, and skew before/after. A second drift burst then
// exercises the StartAutoRebalance worker under the minimal default.
func runRebalance(rows, measuredOps int, seed int64) error {
	if rows <= 0 {
		rows = 200_000
	}
	if measuredOps <= 0 {
		measuredOps = 20_000
	}
	const shards = 8
	domain := int64(rows) * 10
	keys := casper.UniformKeys(rows, domain, seed)
	fmt.Printf("shard rebalancing: %d initial rows over [0, %d], %d shards (range), %d drift inserts\n\n",
		rows, domain, shards, measuredOps)

	// Drift: every insert lands past the top of the loaded range.
	batch := make([]casper.Op, measuredOps)
	for i := range batch {
		batch[i] = casper.Op{Kind: casper.Insert, Key: domain + 1 + int64(i)}
	}

	var eng *casper.Engine
	fmt.Printf("%-10s %12s %12s %14s %16s %18s\n",
		"strategy", "rows-moved", "stragglers", "pause-ms", "bounds-changed", "skew")
	for _, strat := range []struct {
		name string
		s    casper.RebalanceStrategy
	}{
		{"quantile", casper.RebalanceQuantile},
		{"minimal", casper.RebalanceMinimal},
	} {
		e, err := casper.Open(keys, casper.Options{Mode: casper.ModeCasper, Shards: shards, ShardByRange: true})
		if err != nil {
			return err
		}
		if _, err := e.ApplyBatch(batch); err != nil {
			return err
		}
		res, err := e.RebalanceWith(strat.s)
		if err != nil {
			return err
		}
		changed := 0
		for i := range res.NewBounds {
			if res.NewBounds[i] != res.OldBounds[i] {
				changed++
			}
		}
		fmt.Printf("%-10s %12d %12d %14.2f %11d of %d %10.2fx -> %.2fx\n",
			strat.name, res.Moved, res.Stragglers, res.Pause.Seconds()*1e3,
			changed, len(res.OldBounds), res.SkewBefore, res.SkewAfter)
		if strat.s == casper.RebalanceMinimal {
			eng = e // the minimal engine carries on into the auto demo
		} else {
			e.Close()
		}
	}
	counts := func(label string) {
		fmt.Printf("%-22s skew %.2fx  rows/shard %v\n", label, eng.ShardSkew(), eng.ShardRowCounts())
	}
	fmt.Println()
	counts("after rebalance:")

	// Auto mode: a second drift burst under the background worker.
	if err := eng.StartAutoRebalance(casper.RebalancePolicy{
		CheckEvery: 20 * time.Millisecond,
		MaxSkew:    1.5,
		MinOps:     64,
	}); err != nil {
		return err
	}
	defer eng.StopAutoRebalance()
	for i := range batch {
		batch[i] = casper.Op{Kind: casper.Insert, Key: domain + int64(measuredOps) + 1 + int64(i)}
	}
	if _, err := eng.ApplyBatch(batch); err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for eng.Rebalances() < 2 && time.Now().Before(deadline) {
		if err := eng.Insert(domain + int64(2*measuredOps) + time.Now().UnixNano()%1_000); err != nil {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
	if eng.Rebalances() < 2 {
		return fmt.Errorf("auto-rebalance did not trigger within 10s (skew %.2fx)", eng.ShardSkew())
	}
	fmt.Printf("\nauto rebalance:        triggered (total rebalances %d)\n", eng.Rebalances())
	counts("after auto drift:")
	return nil
}

// runThroughput drives the sharded engine with `workers` concurrent clients
// over read-heavy and write-heavy skewed mixes for every requested shard
// count, printing ops/sec and the scaling factor against the first listed
// shard count (the baseline).
func runThroughput(shardList string, rows, measuredOps, workers int, seed int64) error {
	if rows <= 0 {
		rows = 200_000
	}
	if measuredOps <= 0 {
		measuredOps = 100_000
	}
	var counts []int
	for _, f := range strings.Split(shardList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -shards entry %q", f)
		}
		counts = append(counts, n)
	}
	fmt.Printf("sharded throughput: %d rows, %d ops/run, %d workers (GOMAXPROCS %d)\n",
		rows, measuredOps, workers, runtime.GOMAXPROCS(0))
	fmt.Printf("scaling factors are relative to shards=%d\n\n", counts[0])
	for _, mix := range experiments.ShardedMixes() {
		var base float64
		for _, n := range counts {
			eng, ops, err := experiments.ShardedScenario(mix.Preset, n, rows, measuredOps, workers, seed)
			if err != nil {
				return err
			}
			start := time.Now()
			experiments.RunParallel(eng, ops, workers)
			opsPerSec := float64(len(ops)) / time.Since(start).Seconds()
			if base == 0 {
				base = opsPerSec
			}
			fmt.Printf("%-12s shards=%-2d  %10.0f ops/s   %4.2fx\n", mix.Name, n, opsPerSec, opsPerSec/base)
		}
		fmt.Println()
	}
	return nil
}

func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// Artifact schema for the -scan sweep.
type scanPoint struct {
	Range           string  `json:"range"`
	RangeRows       int     `json:"range_rows"`
	Limit           int     `json:"limit"` // 0 = unlimited
	RowsYielded     int     `json:"rows_yielded"`
	ScansPerSec     float64 `json:"scans_per_sec"`
	FirstRowNs      float64 `json:"first_row_ns"`
	AllocBytesPerOp uint64  `json:"alloc_bytes_per_scan"`
}

type scanBaseline struct {
	Range           string  `json:"range"`
	RangeRows       int     `json:"range_rows"`
	FirstRowNs      float64 `json:"first_row_ns"`
	AllocBytesPerOp uint64  `json:"alloc_bytes_per_scan"`
}

type scanArtifact struct {
	Benchmark    string         `json:"benchmark"`
	Rows         int            `json:"rows"`
	Shards       int            `json:"shards"`
	HostCPUs     int            `json:"host_cpus"`
	GoVersion    string         `json:"go_version"`
	Materialized []scanBaseline `json:"materialized_baseline"`
	Points       []scanPoint    `json:"points"`
}

// runScan sweeps streaming cursors over three result sizes × three LIMITs,
// against a materialized baseline that collects the entire result (copied
// rows) before its first row is readable — the pre-cursor read pattern.
func runScan(rows int, seed int64, outPath string) error {
	if rows <= 0 {
		rows = 200_000
	}
	domain := int64(rows) * 10
	keys := casper.UniformKeys(rows, domain, seed)
	eng, err := casper.Open(keys, casper.Options{Mode: casper.ModeCasper, Shards: 4})
	if err != nil {
		return err
	}
	art := scanArtifact{
		Benchmark: "casperbench -scan",
		Rows:      rows,
		Shards:    4,
		HostCPUs:  runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
	ranges := []struct {
		name   string
		lo, hi int64
	}{
		{"1k-rows", 0, 10_000},
		{"10pct", 0, domain / 10},
		{"full", math.MinInt64, math.MaxInt64},
	}
	fmt.Printf("streaming scan sweep: %d rows over [0, %d], 4 shards\n\n", rows, domain)
	fmt.Printf("%-10s %10s %8s %12s %14s %14s\n",
		"range", "rows", "limit", "scans/s", "first-row-µs", "alloc/scan")
	for _, r := range ranges {
		size := eng.RangeCount(r.lo, r.hi)

		// Materialized baseline: collect everything, then read row one.
		iters := scanIters(size)
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		var sink int64
		for i := 0; i < iters; i++ {
			allKeys := make([]int64, 0, size)
			allRows := make([][]int32, 0, size)
			c := eng.Scan(r.lo, r.hi, casper.ScanOptions{})
			for c.Next() {
				allKeys = append(allKeys, c.Key())
				allRows = append(allRows, append([]int32(nil), c.Payload()...))
			}
			c.Close()
			if len(allKeys) > 0 {
				sink += allKeys[0] + int64(allRows[0][0])
			}
		}
		matNs := float64(time.Since(start).Nanoseconds()) / float64(iters)
		runtime.ReadMemStats(&m1)
		base := scanBaseline{
			Range:           r.name,
			RangeRows:       size,
			FirstRowNs:      matNs,
			AllocBytesPerOp: (m1.TotalAlloc - m0.TotalAlloc) / uint64(iters),
		}
		art.Materialized = append(art.Materialized, base)
		fmt.Printf("%-10s %10d %8s %12s %14.1f %14d   (materialized baseline)\n",
			r.name, size, "-", "-", matNs/1e3, base.AllocBytesPerOp)

		for _, limit := range []int{10, 1_000, 0} {
			drain := size
			if limit > 0 && limit < size {
				drain = limit
			}
			iters := scanIters(drain)
			var firstNs float64
			runtime.GC()
			runtime.ReadMemStats(&m0)
			start := time.Now()
			for i := 0; i < iters; i++ {
				c := eng.Scan(r.lo, r.hi, casper.ScanOptions{Limit: limit})
				t0 := time.Now()
				if c.Next() {
					firstNs += float64(time.Since(t0).Nanoseconds())
					sink += c.Key()
				}
				for c.Next() {
					sink += c.Key()
				}
				c.Close()
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&m1)
			pt := scanPoint{
				Range:           r.name,
				RangeRows:       size,
				Limit:           limit,
				RowsYielded:     drain,
				ScansPerSec:     float64(iters) / elapsed.Seconds(),
				FirstRowNs:      firstNs / float64(iters),
				AllocBytesPerOp: (m1.TotalAlloc - m0.TotalAlloc) / uint64(iters),
			}
			art.Points = append(art.Points, pt)
			lim := "full"
			if limit > 0 {
				lim = strconv.Itoa(limit)
			}
			fmt.Printf("%-10s %10d %8s %12.0f %14.1f %14d\n",
				r.name, size, lim, pt.ScansPerSec, pt.FirstRowNs/1e3, pt.AllocBytesPerOp)
		}
		fmt.Println()
	}
	buf, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("artifact written to %s\n", outPath)
	return nil
}

// scanIters sizes the measurement loop so every cell does comparable work:
// tiny drains repeat often, full-table drains a handful of times.
func scanIters(drain int) int {
	switch {
	case drain <= 100:
		return 300
	case drain <= 10_000:
		return 50
	default:
		return 5
	}
}

// Artifact schema for the -cpus sweep. Speedups are relative to the first
// listed worker count; host metadata is embedded so a reader can judge
// whether the sweep had real parallel hardware behind it (a one-CPU host
// timeshares all workers on one core and will report ~flat speedups no
// matter how good the scaling is).
type sweepPoint struct {
	Workers   int     `json:"workers"`
	OpsPerSec float64 `json:"ops_per_sec"`
	Speedup   float64 `json:"speedup_vs_first"`
}

type sweepMix struct {
	Mix    string       `json:"mix"`
	Points []sweepPoint `json:"points"`
}

type sweepArtifact struct {
	Benchmark string     `json:"benchmark"`
	Rows      int        `json:"rows"`
	Ops       int        `json:"ops"`
	Shards    int        `json:"shards"`
	HostCPUs  int        `json:"host_cpus"`
	GoVersion string     `json:"go_version"`
	Mixes     []sweepMix `json:"mixes"`
}

// runThroughputSweep fixes the shard count and sweeps the worker count
// instead: for each count c it pins GOMAXPROCS to c, builds a fresh engine
// (the fan-out pool is sized at engine construction, so the pool tracks the
// pinned value), and drives c concurrent clients. Results go to stdout and
// to a JSON artifact at outPath.
func runThroughputSweep(cpuList string, rows, measuredOps int, seed int64, outPath string) error {
	if rows <= 0 {
		rows = 200_000
	}
	if measuredOps <= 0 {
		measuredOps = 100_000
	}
	var counts []int
	for _, f := range strings.Split(cpuList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -cpus entry %q", f)
		}
		counts = append(counts, n)
	}
	const sweepShards = 8
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	art := sweepArtifact{
		Benchmark: "casperbench -throughput -cpus",
		Rows:      rows,
		Ops:       measuredOps,
		Shards:    sweepShards,
		HostCPUs:  runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
	fmt.Printf("worker sweep: %d rows, %d ops/run, shards=%d, host CPUs %d\n",
		rows, measuredOps, sweepShards, art.HostCPUs)
	fmt.Printf("speedups are relative to workers=%d\n\n", counts[0])
	for _, mix := range experiments.ShardedMixes() {
		sm := sweepMix{Mix: mix.Name}
		var base float64
		for _, c := range counts {
			runtime.GOMAXPROCS(c)
			eng, ops, err := experiments.ShardedScenario(mix.Preset, sweepShards, rows, measuredOps, c, seed)
			if err != nil {
				return err
			}
			start := time.Now()
			experiments.RunParallel(eng, ops, c)
			opsPerSec := float64(len(ops)) / time.Since(start).Seconds()
			if base == 0 {
				base = opsPerSec
			}
			pt := sweepPoint{Workers: c, OpsPerSec: opsPerSec, Speedup: opsPerSec / base}
			sm.Points = append(sm.Points, pt)
			fmt.Printf("%-12s workers=%-2d  %10.0f ops/s   %4.2fx\n", mix.Name, c, pt.OpsPerSec, pt.Speedup)
		}
		art.Mixes = append(art.Mixes, sm)
		fmt.Println()
	}
	buf, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("artifact written to %s\n", outPath)
	return nil
}
