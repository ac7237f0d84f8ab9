package casper_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, delegating to internal/experiments (the same code the
// casperbench command runs), plus operation-level micro-benchmarks on the
// public API. Run with:
//
//	go test -bench=. -benchmem
//
// Figure benchmarks report their headline metric via b.ReportMetric so the
// shape is visible in benchmark output (e.g. Casper-vs-state-of-art
// normalized throughput for Fig. 12).

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"casper"
	"casper/internal/experiments"
)

// benchScale sizes experiment benchmarks so a full -bench=. pass stays in
// the minutes range.
func benchScale() experiments.Scale {
	sc := experiments.SmallScale()
	sc.Rows = 50_000
	sc.Ops = 1_500
	sc.TrainOps = 1_500
	sc.ChunkValues = 16_384
	sc.DomainMax = 500_000
	return sc
}

func BenchmarkTable1DesignSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.Table1(); len(r.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkFig01VanillaVsDeltaVsCasper(b *testing.B) {
	sc := benchScale()
	var last experiments.Report
	for i := 0; i < b.N; i++ {
		last = experiments.Fig1(sc)
	}
	if n := last.Data["norm"]; len(n) == 3 {
		b.ReportMetric(n[1], "delta-x-vanilla")
		b.ReportMetric(n[2], "casper-x-vanilla")
	}
}

func BenchmarkFig02TradeoffCurves(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		experiments.Fig2(sc)
	}
}

func BenchmarkFig09ModelVerification(b *testing.B) {
	sc := benchScale()
	var last experiments.Report
	for i := 0; i < b.N; i++ {
		last = experiments.Fig9(sc)
	}
	if rs := last.Data["a.ratio"]; len(rs) > 0 {
		var s float64
		for _, r := range rs {
			s += r
		}
		b.ReportMetric(s/float64(len(rs)), "mean-model-ratio")
	}
}

func BenchmarkFig11SolverScalability(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		experiments.Fig11(sc)
	}
}

func BenchmarkFig12LayoutsAcrossWorkloads(b *testing.B) {
	sc := benchScale()
	var last experiments.Report
	for i := 0; i < b.N; i++ {
		last = experiments.Fig12(sc)
	}
	if v := last.Data["update-only, uniform/Casper"]; len(v) == 1 {
		b.ReportMetric(v[0], "casper-norm-updateonly")
	}
	if v := last.Data["hybrid, skewed/Casper"]; len(v) == 1 {
		b.ReportMetric(v[0], "casper-norm-hybrid")
	}
}

func BenchmarkFig13LatencyBreakdown(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		experiments.Fig13(sc)
	}
}

func BenchmarkFig14GhostValueSweep(b *testing.B) {
	sc := benchScale()
	var last experiments.Report
	for i := 0; i < b.N; i++ {
		last = experiments.Fig14(sc)
	}
	if v := last.Data["udi1"]; len(v) >= 2 {
		b.ReportMetric(v[0]/v[len(v)-1], "insert-speedup-at-10pct")
	}
}

func BenchmarkFig15SLASweep(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		experiments.Fig15(sc)
	}
}

func BenchmarkFig16Robustness(b *testing.B) {
	sc := benchScale()
	sc.Ops = 600
	for i := 0; i < b.N; i++ {
		experiments.Fig16(sc)
	}
}

// BenchmarkShardedThroughput measures multi-client ops/sec as the shard
// count grows, on a read-heavy and a write-heavy skewed mix. The headline
// metric is ops/s; scaling 1→8 shards is the tentpole claim (hash
// partitioning spreads the skewed hot range across the fleet, so the hot
// chunk's lock stops being a global serialization point).
func BenchmarkShardedThroughput(b *testing.B) {
	const rows = 200_000
	for _, mix := range experiments.ShardedMixes() {
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/shards=%d", mix.Name, shards), func(b *testing.B) {
				e, ops, err := experiments.ShardedScenario(mix.Preset, shards, rows, 100_000, 4, 3)
				if err != nil {
					b.Fatal(err)
				}
				var next atomic.Int64
				b.ResetTimer()
				start := time.Now()
				b.RunParallel(func(pb *testing.PB) {
					// Each client walks the shared stream from its own
					// offset so clients don't replay identical ops in
					// lockstep.
					i := int(next.Add(1)) * 7919
					var sink int64
					for pb.Next() {
						n, _ := e.Execute(ops[i%len(ops)])
						sink += n
						i++
					}
					_ = sink
				})
				b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "ops/s")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Operation-level micro-benchmarks on the public API
// ---------------------------------------------------------------------------

func benchEngine(b *testing.B, mode casper.Mode, ghostFrac float64) (*casper.Engine, []int64) {
	b.Helper()
	const rows, domain = 100_000, 1_000_000
	keys := casper.UniformKeys(rows, domain, 3)
	e, err := casper.Open(keys, casper.Options{
		Mode:        mode,
		PayloadCols: 7,
		ChunkValues: 32_768,
		GhostFrac:   ghostFrac,
		Partitions:  16,
	})
	if err != nil {
		b.Fatal(err)
	}
	if mode == casper.ModeCasper {
		sample, err := casper.PresetWorkload(casper.HybridSkewed, keys, domain, 4_000, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Train(sample, 1); err != nil {
			b.Fatal(err)
		}
	}
	return e, keys
}

func BenchmarkPointQuery(b *testing.B) {
	for _, mode := range []casper.Mode{casper.ModeCasper, casper.ModeStateOfArt, casper.ModeNoOrder} {
		b.Run(mode.String(), func(b *testing.B) {
			e, keys := benchEngine(b, mode, 0.001)
			b.ReportAllocs()
			b.ResetTimer()
			var sink int
			for i := 0; i < b.N; i++ {
				sink += e.PointQuery(keys[i%len(keys)])
			}
			_ = sink
		})
	}
}

func BenchmarkRangeSum(b *testing.B) {
	for _, mode := range []casper.Mode{casper.ModeCasper, casper.ModeStateOfArt} {
		b.Run(mode.String(), func(b *testing.B) {
			e, _ := benchEngine(b, mode, 0.001)
			b.ReportAllocs()
			b.ResetTimer()
			var sink int64
			for i := 0; i < b.N; i++ {
				lo := int64(i%50) * 19_000
				sink += e.RangeSum(lo, lo+20_000)
			}
			_ = sink
		})
	}
}

func BenchmarkInsert(b *testing.B) {
	for _, tc := range []struct {
		name string
		mode casper.Mode
		gv   float64
	}{
		{"Casper-1pctGV", casper.ModeCasper, 0.01},
		{"Casper-0.01pctGV", casper.ModeCasper, 0.0001},
		{"StateOfArt", casper.ModeStateOfArt, 0},
		{"Sorted", casper.ModeSorted, 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			e, _ := benchEngine(b, tc.mode, tc.gv)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Insert(int64(i*7919) % 1_000_000)
			}
		})
	}
}

func BenchmarkUpdateKey(b *testing.B) {
	e, keys := benchEngine(b, casper.ModeCasper, 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		old := keys[i%len(keys)]
		_ = e.UpdateKey(old, old+1)
		keys[i%len(keys)] = old + 1
	}
}

func BenchmarkTrain(b *testing.B) {
	const rows, domain = 100_000, 1_000_000
	keys := casper.UniformKeys(rows, domain, 3)
	sample, err := casper.PresetWorkload(casper.HybridSkewed, keys, domain, 4_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := casper.Open(keys, casper.Options{
			Mode:        casper.ModeCasper,
			PayloadCols: 7,
			ChunkValues: 32_768,
			Partitions:  16,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := e.Train(sample, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransactionCommit(b *testing.B) {
	e, _ := benchEngine(b, casper.ModeCasper, 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := e.Begin()
		if err := tx.Insert(int64(2_000_000 + i)); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// Example-style doc test exercising the quickstart flow end to end.
func Example() {
	keys := casper.UniformKeys(10_000, 100_000, 42)
	eng, err := casper.Open(keys, casper.Options{
		Mode:        casper.ModeCasper,
		PayloadCols: 3,
		ChunkValues: 4_096,
		Partitions:  8,
	})
	if err != nil {
		panic(err)
	}
	sample, err := casper.PresetWorkload(casper.HybridSkewed, keys, 100_000, 2_000, 1)
	if err != nil {
		panic(err)
	}
	if err := eng.Train(sample, 1); err != nil {
		panic(err)
	}
	if err := eng.Insert(555); err != nil {
		panic(err)
	}
	fmt.Println(eng.PointQuery(555) >= 1)
	// Output: true
}

func BenchmarkAblations(b *testing.B) {
	sc := benchScale()
	var last experiments.Report
	for i := 0; i < b.N; i++ {
		last = experiments.Ablations(sc)
	}
	if dp, equi := last.Data["solver.dp"], last.Data["solver.equi"]; len(dp) == 1 && len(equi) == 1 && dp[0] > 0 {
		b.ReportMetric(equi[0]/dp[0], "equi-cost-vs-optimal")
	}
}

func BenchmarkCompressionSynergy(b *testing.B) {
	sc := benchScale()
	var last experiments.Report
	for i := 0; i < b.N; i++ {
		last = experiments.ExtCompression(sc)
	}
	if v := last.Data["fine"]; len(v) == 1 {
		b.ReportMetric(v[0], "for-ratio-64parts")
	}
}
