package shard_test

// Oracle suite: a sharded engine must be observationally identical to the
// single-table engine. Every preset workload is replayed serially through a
// 1-shard oracle and through 8-shard hash- and range-partitioned engines,
// then sinks, row counts, and point/range/payload probes are compared.

import (
	"math/rand"
	"testing"

	"casper/internal/shard"
	"casper/internal/table"
	"casper/internal/workload"
)

const (
	oracleRows   = 10_000
	oracleDomain = 200_000
	oracleOps    = 2_000
)

func oracleConfig() table.Config {
	return table.Config{
		Mode:        table.Casper,
		PayloadCols: 4,
		ChunkValues: 4_096,
		GhostFrac:   0.01,
		Partitions:  16,
	}
}

func newEngines(t testing.TB, keys []int64) map[string]*shard.Engine {
	t.Helper()
	engines := make(map[string]*shard.Engine)
	for name, cfg := range map[string]shard.Config{
		"1-shard":       {Shards: 1, Table: oracleConfig()},
		"8-shard-hash":  {Shards: 8, Table: oracleConfig()},
		"8-shard-range": {Shards: 8, ByRange: true, Table: oracleConfig()},
	} {
		e, err := shard.New(keys, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		engines[name] = e
	}
	return engines
}

// probe compares every observable the engines expose on shared inputs.
func probe(t *testing.T, stage string, oracle *shard.Engine, name string, e *shard.Engine, keys []int64, rng *rand.Rand) {
	t.Helper()
	if got, want := e.Len(), oracle.Len(); got != want {
		t.Errorf("%s: %s Len = %d, oracle %d", stage, name, got, want)
	}
	for i := 0; i < 200; i++ {
		k := keys[rng.Intn(len(keys))]
		got, want := e.PointQuery(k), oracle.PointQuery(k)
		if got != want {
			t.Fatalf("%s: %s PointQuery(%d) = %d, oracle %d", stage, name, k, got, want)
		}
		if want == 1 {
			// With exactly one live row the payload is unambiguous.
			gv, gok := e.Payload(k, 1)
			wv, wok := oracle.Payload(k, 1)
			if gok != wok || gv != wv {
				t.Fatalf("%s: %s Payload(%d) = (%d,%v), oracle (%d,%v)", stage, name, k, gv, gok, wv, wok)
			}
		}
	}
	for i := 0; i < 100; i++ {
		lo := rng.Int63n(oracleDomain)
		hi := lo + rng.Int63n(oracleDomain/10) + 1
		if got, want := e.RangeCount(lo, hi), oracle.RangeCount(lo, hi); got != want {
			t.Fatalf("%s: %s RangeCount(%d,%d) = %d, oracle %d", stage, name, lo, hi, got, want)
		}
		if got, want := e.RangeSum(lo, hi), oracle.RangeSum(lo, hi); got != want {
			t.Fatalf("%s: %s RangeSum(%d,%d) = %d, oracle %d", stage, name, lo, hi, got, want)
		}
		filters := []table.PayloadFilter{{Col: 1, Lo: -1 << 30, Hi: 1 << 30}, {Col: 2, Lo: 0, Hi: 1 << 30}}
		if got, want := e.MultiRangeSum(lo, hi, filters, 3), oracle.MultiRangeSum(lo, hi, filters, 3); got != want {
			t.Fatalf("%s: %s MultiRangeSum(%d,%d) = %d, oracle %d", stage, name, lo, hi, got, want)
		}
	}
}

func TestShardedMatchesOracleAcrossPresets(t *testing.T) {
	for _, preset := range workload.PresetNames() {
		preset := preset
		t.Run(preset, func(t *testing.T) {
			t.Parallel()
			keys := workload.UniformKeys(oracleRows, oracleDomain, 7)
			engines := newEngines(t, keys)
			oracle := engines["1-shard"]

			spec, err := workload.Preset(preset, oracleOps, 11)
			if err != nil {
				t.Fatal(err)
			}
			ops, err := workload.Generate(keys, oracleDomain, spec)
			if err != nil {
				t.Fatal(err)
			}
			trainSpec, err := workload.Preset(preset, oracleOps, 12)
			if err != nil {
				t.Fatal(err)
			}
			trainOps, err := workload.Generate(keys, oracleDomain, trainSpec)
			if err != nil {
				t.Fatal(err)
			}

			for name, e := range engines {
				if err := e.Train(trainOps, 2); err != nil {
					t.Fatalf("%s: train: %v", name, err)
				}
			}
			sinks := make(map[string]int64)
			for name, e := range engines {
				sinks[name] = executeAll(e, ops)
			}
			for name, e := range engines {
				if sinks[name] != sinks["1-shard"] {
					t.Errorf("sink mismatch: %s = %d, oracle %d", name, sinks[name], sinks["1-shard"])
				}
				if name == "1-shard" {
					continue
				}
				probe(t, "after-"+preset, oracle, name, e, keys, rand.New(rand.NewSource(3)))
			}
		})
	}
}

// TestShardedMatchesOracleAfterShadowRetrain replays a workload, then forces
// a shadow retrain of every shard and re-probes: the swapped-in layout must
// not change any query result.
func TestShardedMatchesOracleAfterShadowRetrain(t *testing.T) {
	keys := workload.UniformKeys(oracleRows, oracleDomain, 7)
	engines := newEngines(t, keys)
	oracle := engines["1-shard"]

	spec, err := workload.Preset(workload.HybridSkewed, oracleOps, 21)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := workload.Generate(keys, oracleDomain, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engines {
		executeAll(e, ops)
	}
	for name, e := range engines {
		for i := 0; i < e.Shards(); i++ {
			if err := e.RetrainShard(i, ops, 1); err != nil {
				t.Fatalf("%s: retrain shard %d: %v", name, i, err)
			}
		}
		if got, want := e.Retrains(), uint64(e.Shards()); got != want {
			t.Errorf("%s: retrains = %d, want %d", name, got, want)
		}
	}
	for name, e := range engines {
		if name == "1-shard" {
			continue
		}
		probe(t, "after-retrain", oracle, name, e, keys, rand.New(rand.NewSource(5)))
	}
}

// TestEmptyShardLazySeeding drives keys into a shard that received no
// initial rows: reads must report absence, deletes must error, and the first
// insert must materialize the shard.
func TestEmptyShardLazySeeding(t *testing.T) {
	// All initial keys collide into few hash shards, leaving others empty.
	keys := []int64{0, 0, 0, 0}
	e, err := shard.New(keys, shard.Config{Shards: 8, Table: oracleConfig()})
	if err != nil {
		t.Fatal(err)
	}
	empty := int64(-1)
	for k := int64(1); k < 1_000; k++ {
		if e.Partitioner().Shard(k) != e.Partitioner().Shard(0) && e.PointQuery(k) == 0 {
			empty = k
			break
		}
	}
	if empty < 0 {
		t.Fatal("no key routing to an empty shard found")
	}
	if err := e.Delete(empty); err == nil {
		t.Error("delete on empty shard should error")
	}
	if err := e.UpdateKey(empty, empty+1); err == nil {
		t.Error("update on empty shard should error")
	}
	e.Insert(empty)
	if got := e.PointQuery(empty); got != 1 {
		t.Errorf("PointQuery after seeding insert = %d, want 1", got)
	}
	if got, want := e.Len(), len(keys)+1; got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
	if err := e.Delete(empty); err != nil {
		t.Errorf("delete after seeding: %v", err)
	}
}

// TestApplyBatchMatchesSerial checks that a batch of disjoint-key writes
// applied in parallel reaches the same final state as serial execution.
func TestApplyBatchMatchesSerial(t *testing.T) {
	keys := workload.UniformKeys(oracleRows, oracleDomain, 7)
	serial, err := shard.New(keys, shard.Config{Shards: 8, Table: oracleConfig()})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := shard.New(keys, shard.Config{Shards: 8, Table: oracleConfig()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var ops []workload.Op
	for i := 0; i < 4_000; i++ {
		switch rng.Intn(3) {
		case 0:
			ops = append(ops, workload.Op{Kind: workload.Q4Insert, Key: rng.Int63n(oracleDomain)})
		case 1:
			ops = append(ops, workload.Op{Kind: workload.Q1PointQuery, Key: rng.Int63n(oracleDomain)})
		default:
			ops = append(ops, workload.Op{Kind: workload.Q2RangeCount, Key: 0, Key2: oracleDomain})
		}
	}
	executeAll(serial, ops)
	if _, err := batched.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	if got, want := batched.Len(), serial.Len(); got != want {
		t.Errorf("Len after batch = %d, serial %d", got, want)
	}
	for k := int64(0); k < oracleDomain; k += 997 {
		if got, want := batched.PointQuery(k), serial.PointQuery(k); got != want {
			t.Fatalf("PointQuery(%d) = %d, serial %d", k, got, want)
		}
	}
}

// TestPartitioners checks routing invariants shared by both partitioners.
func TestPartitioners(t *testing.T) {
	keys := workload.UniformKeys(5_000, 1_000_000, 3)
	for name, p := range map[string]shard.Partitioner{
		"hash":  shard.NewHashPartitioner(8),
		"range": shard.NewRangePartitioner(keys, 8),
	} {
		if p.Shards() != 8 {
			t.Fatalf("%s: shards = %d", name, p.Shards())
		}
		counts := make([]int, 8)
		for _, k := range keys {
			s := p.Shard(k)
			if s < 0 || s >= 8 {
				t.Fatalf("%s: key %d routed to %d", name, k, s)
			}
			if again := p.Shard(k); again != s {
				t.Fatalf("%s: key %d unstable routing %d vs %d", name, k, s, again)
			}
			counts[s]++
		}
		for s, c := range counts {
			if c == 0 {
				t.Errorf("%s: shard %d received no keys", name, s)
			}
		}
		// Every key inside [lo, hi] must be inside Span(lo, hi)... only
		// meaningful for range partitioning; hash spans everything.
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 1_000; i++ {
			lo := rng.Int63n(1_000_000)
			hi := lo + rng.Int63n(100_000)
			a, b := p.Span(lo, hi)
			for j := 0; j < 10; j++ {
				k := lo + rng.Int63n(hi-lo+1)
				if s := p.Shard(k); s < a || s > b {
					t.Fatalf("%s: key %d in [%d,%d] routed to shard %d outside span [%d,%d]", name, k, lo, hi, s, a, b)
				}
			}
		}
	}
}

// TestSplitByShard checks the training-sample router duplicates range and
// update ops into every shard that serves them.
func TestSplitByShard(t *testing.T) {
	p := shard.NewRangePartitioner([]int64{0, 100, 200, 300, 400, 500, 600, 700}, 4)
	ops := []workload.Op{
		{Kind: workload.Q1PointQuery, Key: 50},
		{Kind: workload.Q3RangeSum, Key: 50, Key2: 750},
		{Kind: workload.Q6Update, Key: 50, Key2: 750},
	}
	per := workload.SplitByShard(ops, 4, p.Shard, p.Span)
	if len(per[0]) != 3 {
		t.Errorf("shard 0 got %d ops, want 3", len(per[0]))
	}
	for s := 1; s < 3; s++ {
		if len(per[s]) != 1 {
			t.Errorf("shard %d got %d ops, want 1 (the spanning range)", s, len(per[s]))
		}
	}
	if len(per[3]) != 2 {
		t.Errorf("shard 3 got %d ops, want 2 (range + update target)", len(per[3]))
	}
	total := 0
	for _, g := range per {
		total += len(g)
	}
	if total != 7 {
		t.Errorf("total routed ops = %d, want 7", total)
	}
}

// executeAll runs ops serially and returns the summed sink. A failed write
// (a generated delete of an absent key) adds nothing, identically on every
// engine under comparison.
func executeAll(e *shard.Engine, ops []workload.Op) int64 {
	var sink int64
	for _, op := range ops {
		n, _ := e.Execute(op)
		sink += n
	}
	return sink
}
