package shard_test

// Concurrency suite, meant for `go test -race ./internal/shard/`: hammers
// ApplyBatch writers, fan-out range readers, and shadow retraining against
// one engine simultaneously, asserting no torn reads — every key observed is
// one that was inserted.
//
// Key-space discipline makes the invariants checkable under concurrency:
//
//	initial keys  ≡ 0 (mod 4)
//	writer keys   ≡ 2 (mod 4), disjoint per writer
//	probe keys    odd — never inserted, must never be observed
//
// Every live key is even, so any RangeSum the readers observe must be even;
// an odd sum or a non-zero odd-key PointQuery is a torn read.

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"casper/internal/shard"
	"casper/internal/workload"
)

const (
	raceWriters      = 4
	raceBatches      = 30
	raceBatchOps     = 64
	raceInitialRows  = 4_096
	raceReaderProbes = 64
)

func raceEngine(t *testing.T) (*shard.Engine, []int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	keys := make([]int64, raceInitialRows)
	for i := range keys {
		keys[i] = 4 * rng.Int63n(100_000) // ≡ 0 (mod 4)
	}
	cfg := oracleConfig()
	cfg.ChunkValues = 1_024
	e, err := shard.New(keys, shard.Config{Shards: 8, Table: cfg, MonitorCap: 4_096})
	if err != nil {
		t.Fatal(err)
	}
	return e, keys
}

// writerKey returns writer w's j-th private key: ≡ 2 (mod 4), disjoint
// across writers.
func writerKey(w, j int) int64 {
	return 2 + 4*int64(w*raceBatches*raceBatchOps+j)
}

func TestConcurrentBatchesReadsAndRetraining(t *testing.T) {
	e, keys := raceEngine(t)

	// Aggressive background retraining: tiny windows, any drift triggers.
	if err := e.StartAutoRetrain(shard.RetrainPolicy{
		CheckEvery:  2 * time.Millisecond,
		MinOps:      64,
		MaxDrift:    0.01,
		Parallelism: 1,
	}); err != nil {
		t.Fatal(err)
	}
	defer e.StopAutoRetrain()

	sample, err := workload.Preset(workload.HybridSkewed, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	sampleOps, err := workload.Generate(keys, 400_000, sample)
	if err != nil {
		t.Fatal(err)
	}

	var (
		writers sync.WaitGroup
		readers sync.WaitGroup
		stop    atomic.Bool
		torn    atomic.Int64
		probes  atomic.Int64
	)

	// Writers: ApplyBatch waves over private even key spaces. Each writer
	// inserts its keys, then deletes every third one, so the final
	// per-key state is deterministic.
	for w := 0; w < raceWriters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for b := 0; b < raceBatches; b++ {
				batch := make([]workload.Op, 0, raceBatchOps)
				for j := 0; j < raceBatchOps; j++ {
					k := writerKey(w, b*raceBatchOps+j)
					batch = append(batch, workload.Op{Kind: workload.Q4Insert, Key: k})
					if j%3 == 0 {
						batch = append(batch, workload.Op{Kind: workload.Q5Delete, Key: k})
					}
				}
				if _, err := e.ApplyBatch(batch); err != nil {
					t.Errorf("writer %d batch %d: %v", w, b, err)
					return
				}
			}
		}(w)
	}

	// Readers: fan-out range scans plus phantom probes on odd keys.
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for !stop.Load() {
				lo := rng.Int63n(300_000)
				hi := lo + rng.Int63n(100_000)
				if sum := e.RangeSum(lo, hi); sum%2 != 0 {
					torn.Add(1)
					t.Errorf("odd RangeSum(%d,%d) = %d: torn read of a key", lo, hi, sum)
					return
				}
				for i := 0; i < raceReaderProbes; i++ {
					odd := 2*rng.Int63n(400_000) + 1
					if n := e.PointQuery(odd); n != 0 {
						torn.Add(1)
						t.Errorf("phantom key %d observed %d times", odd, n)
						return
					}
					if _, ok := e.Payload(odd, 0); ok {
						torn.Add(1)
						t.Errorf("phantom payload for key %d", odd)
						return
					}
					probes.Add(1)
				}
			}
		}(r)
	}

	// Foreground retrain pressure: deterministic shadow swaps while the
	// batches and readers run (the ticker-driven worker races too, but
	// these are guaranteed to exercise the journal/swap path).
	writers.Add(1)
	go func() {
		defer writers.Done()
		for round := 0; round < 3; round++ {
			for i := 0; i < e.Shards(); i++ {
				// Serializes behind the ticker-driven worker when it got
				// to the shard first.
				_ = e.RetrainShard(i, sampleOps, 1)
			}
		}
	}()

	// Quiesce: writers drain first, then the readers are released.
	writers.Wait()
	stop.Store(true)
	readers.Wait()

	if torn.Load() != 0 {
		t.Fatalf("%d torn reads", torn.Load())
	}
	if probes.Load() == 0 {
		t.Error("readers made no probes")
	}

	// Deterministic final state: every writer key j with j%3 != 0 within
	// its batch survives exactly once, j%3 == 0 was deleted.
	for w := 0; w < raceWriters; w++ {
		for b := 0; b < raceBatches; b++ {
			for j := 0; j < raceBatchOps; j += 7 {
				k := writerKey(w, b*raceBatchOps+j)
				want := 1
				if j%3 == 0 {
					want = 0
				}
				if got := e.PointQuery(k); got != want {
					t.Fatalf("writer %d key %d: count %d, want %d", w, k, got, want)
				}
			}
		}
	}
}

// TestJournalOrderWithDependentWrites regresses the shadow-retrain journal
// ordering guarantee: writer A's UpdateKey(k→k2) creates the row writer B's
// Delete(k2) removes, while the shard's layout is being retrained. If the
// journal recorded the two mutations in a different order than they applied
// to the live table, the replay onto the shadow would silently drop the
// delete and the swap would resurrect k2.
func TestJournalOrderWithDependentWrites(t *testing.T) {
	e, keys := raceEngine(t)
	part := e.Partitioner()

	// Two fresh keys owned by the same shard, clear of the initial keys.
	k := int64(1_000_000)
	k2 := int64(2_000_000)
	for part.Shard(k2) != part.Shard(k) {
		k2 += 2
	}
	owner := part.Shard(k)

	sample, err := workload.Preset(workload.HybridSkewed, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	sampleOps, err := workload.Generate(keys, 400_000, sample)
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 50; round++ {
		e.Insert(k)
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			_ = e.RetrainShard(owner, sampleOps, 1)
		}()
		go func() {
			defer wg.Done()
			for e.UpdateKey(k, k2) != nil {
			}
		}()
		go func() {
			defer wg.Done()
			// Spins until the update has materialized k2, then removes it:
			// this delete depends on the update having applied first.
			for e.Delete(k2) != nil {
			}
		}()
		wg.Wait()
		if n := e.PointQuery(k2); n != 0 {
			t.Fatalf("round %d: key %d resurrected by shadow swap (count %d)", round, k2, n)
		}
		if n := e.PointQuery(k); n != 0 {
			t.Fatalf("round %d: key %d still present after update (count %d)", round, k, n)
		}
	}
}

// TestCrossShardMoveAtomicVisibility is the acceptance regression for the
// epoch-based cross-shard commit protocol: one resident row is moved back
// and forth between two shards while readers assert — under a pinned View —
// that it is visible at exactly one of the two keys at all times, with its
// payload intact, and while shadow retrains of both involved shards are in
// flight (the epoch-replay path). Before the protocol, the take+insert gap
// made readers observe the row on neither shard ("0" windows).
func TestCrossShardMoveAtomicVisibility(t *testing.T) {
	e, keys := raceEngine(t)
	part := e.Partitioner()

	// A fresh odd key pair on different shards (initial keys are ≡ 0 mod 4).
	a := int64(1_000_001)
	b := a + 2
	for part.Shard(b) == part.Shard(a) {
		b += 2
	}
	e.Insert(a)
	wantPayload := int32(a) + 1 // DefaultPayload(a, 1); travels with the row

	sample, err := workload.Preset(workload.HybridSkewed, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	sampleOps, err := workload.Generate(keys, 400_000, sample)
	if err != nil {
		t.Fatal(err)
	}

	var (
		movers   sync.WaitGroup
		retrains sync.WaitGroup
		readers  sync.WaitGroup
		started  sync.WaitGroup // one Done per reader's first iteration
		stop     atomic.Bool
		torn     atomic.Int64
		views    atomic.Int64
	)

	// Readers: multi-query invariants under a pinned View, plus a one-call
	// fan-out probe (RangeCount spans both shards inside a single query).
	// They run until the bounded writers finish, with at least one
	// iteration each; the mover waits for every reader's first iteration,
	// so reads and moves are guaranteed to overlap.
	lo, hi := a-1, b+1
	if hi < lo {
		lo, hi = b-1, a+1
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		started.Add(1)
		go func() {
			defer readers.Done()
			signaled := false
			signal := func() {
				if !signaled {
					signaled = true
					started.Done()
				}
			}
			defer signal()
			// Bounded on both sides: readers exit when the bounded mover
			// finishes or after a fixed probe budget, whichever is first,
			// keeping the worst-case runtime flat under CPU contention.
			for i := 0; i < 1_500; i++ {
				ok := true
				e.View(func(v *shard.View) {
					na, nb := v.PointQuery(a), v.PointQuery(b)
					if na+nb != 1 {
						torn.Add(1)
						ok = false
						t.Errorf("view: row visible %d times at old + %d at new, want total 1", na, nb)
						return
					}
					at := a
					if nb == 1 {
						at = b
					}
					if pv, pok := v.Payload(at, 1); !pok || pv != wantPayload {
						torn.Add(1)
						ok = false
						t.Errorf("view: payload at %d = (%d,%v), want (%d,true)", at, pv, pok, wantPayload)
						return
					}
					views.Add(1)
				})
				// Fresh odd keys stay unique, so the fan-out range holds
				// exactly the moving row regardless of which shard owns it.
				if n := e.RangeCount(lo, hi); n != 1 {
					torn.Add(1)
					ok = false
					t.Errorf("RangeCount(%d,%d) = %d, want 1", lo, hi, n)
				}
				signal()
				if !ok || stop.Load() {
					return
				}
			}
		}()
	}

	// Mover: a bounded ping-pong of the row between the two shards; every
	// pass completes the pair, so the row ends at a.
	movers.Add(1)
	go func() {
		defer movers.Done()
		started.Wait()
		for i := 0; i < 150; i++ {
			if err := e.UpdateKey(a, b); err != nil {
				t.Errorf("move %d a→b: %v", i, err)
				return
			}
			if err := e.UpdateKey(b, a); err != nil {
				t.Errorf("move %d b→a: %v", i, err)
				return
			}
		}
	}()

	// Retrain pressure on both involved shards: the journaled halves of
	// in-flight moves must replay onto the shadows without breaking the
	// visibility invariant. Bounded rounds and the start gate keep a
	// single-CPU scheduler from spinning retrains before the readers and
	// the mover have even been scheduled.
	retrains.Add(1)
	go func() {
		defer retrains.Done()
		started.Wait()
		for r := 0; r < 20 && !stop.Load(); r++ {
			if err := e.RetrainShard(part.Shard(a), sampleOps, 1); err != nil {
				t.Errorf("retrain shard of a: %v", err)
			}
			if err := e.RetrainShard(part.Shard(b), sampleOps, 1); err != nil {
				t.Errorf("retrain shard of b: %v", err)
			}
		}
	}()

	movers.Wait()
	stop.Store(true)
	readers.Wait()
	retrains.Wait()

	if torn.Load() != 0 {
		t.Fatalf("%d atomicity violations", torn.Load())
	}
	if views.Load() == 0 {
		t.Error("readers pinned no views")
	}
	if na, nb := e.PointQuery(a), e.PointQuery(b); na != 1 || nb != 0 {
		t.Errorf("final counts (%d,%d), want (1,0)", na, nb)
	}
	if v, ok := e.Payload(a, 1); !ok || v != wantPayload {
		t.Errorf("final payload = (%d,%v), want (%d,true)", v, ok, wantPayload)
	}
}

// TestRebalanceAtomicVisibility is the acceptance regression for the
// rebalance protocol's visibility guarantee: while boundary sets flip back
// and forth (forcing bulk row migrations and partitioner installs), a
// resident row ping-pongs between two keys, View-pinned readers assert it is
// visible at exactly one key with its payload intact, fan-out probes count
// it exactly once, and writers hammer private keys through the re-route path
// with a deterministic final state. Bounded on every side (no goroutine
// ping-pong loops), so it stays flat on a single-CPU runtime.
func TestRebalanceAtomicVisibility(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	keys := make([]int64, raceInitialRows)
	for i := range keys {
		keys[i] = 4 * rng.Int63n(100_000) // ≡ 0 (mod 4)
	}
	cfg := oracleConfig()
	cfg.ChunkValues = 1_024
	e, err := shard.New(keys, shard.Config{Shards: 8, ByRange: true, Table: cfg, MonitorCap: 4_096})
	if err != nil {
		t.Fatal(err)
	}

	boundsA := e.Partitioner().(*shard.RangePartitioner).Bounds()
	if len(boundsA) != e.Shards()-1 {
		t.Fatalf("initial bounds %d for %d shards", len(boundsA), e.Shards())
	}
	boundsB := make([]int64, len(boundsA))
	for i, b := range boundsA {
		boundsB[i] = b + 401 // shifts a slice of rows across every boundary
	}

	// The moving row: a fresh odd key pair several boundaries apart, so the
	// ping-pong is cross-shard (move-gated) under BOTH boundary sets — a
	// same-shard update would bypass the gate and void the View invariant.
	// Either key may itself sit within a boundary flip's migration window,
	// so the resident row also rides rebalances.
	a := int64(100_001)
	b := int64(300_001)
	if pa, pb := e.Partitioner().Shard(a), e.Partitioner().Shard(b); pa == pb {
		t.Fatalf("setup: keys %d and %d share shard %d", a, b, pa)
	}
	e.Insert(a)
	wantPayload := int32(a) + 1 // DefaultPayload(a, 1); travels with the row

	// Fan-out probe constant: [a-1, b+1] spans several shards and holds the
	// resident row (at a or b) plus a fixed population of initial keys the
	// writers never touch.
	wantRange := e.RangeCount(a-1, b+1)
	if wantRange < 2 {
		t.Fatalf("setup: fan-out range holds only %d rows", wantRange)
	}

	var (
		writers sync.WaitGroup
		readers sync.WaitGroup
		started sync.WaitGroup
		stop    atomic.Bool
		torn    atomic.Int64
		views   atomic.Int64
	)

	// Readers: the one-key-exactly invariant under a pinned View plus a
	// single-call fan-out probe and phantom checks.
	for r := 0; r < 3; r++ {
		readers.Add(1)
		started.Add(1)
		go func(r int) {
			defer readers.Done()
			signaled := false
			signal := func() {
				if !signaled {
					signaled = true
					started.Done()
				}
			}
			defer signal()
			prng := rand.New(rand.NewSource(int64(300 + r)))
			for i := 0; i < 1_200; i++ {
				ok := true
				e.View(func(v *shard.View) {
					na, nb := v.PointQuery(a), v.PointQuery(b)
					if na+nb != 1 {
						torn.Add(1)
						ok = false
						t.Errorf("view: moving row visible %d+%d times, want 1", na, nb)
						return
					}
					at := a
					if nb == 1 {
						at = b
					}
					if pv, pok := v.Payload(at, 1); !pok || pv != wantPayload {
						torn.Add(1)
						ok = false
						t.Errorf("view: payload at %d = (%d,%v), want (%d,true)", at, pv, pok, wantPayload)
						return
					}
					views.Add(1)
				})
				if n := e.RangeCount(a-1, b+1); n != wantRange {
					torn.Add(1)
					ok = false
					t.Errorf("RangeCount(%d,%d) = %d, want %d", a-1, b+1, n, wantRange)
				}
				if odd := 2*prng.Int63n(400_000) + 1; odd != a && odd != b && e.PointQuery(odd) != 0 {
					torn.Add(1)
					ok = false
					t.Errorf("phantom key %d observed", odd)
				}
				signal()
				if !ok || stop.Load() {
					return
				}
			}
		}(r)
	}

	// Writers: private even keys through Insert/Delete — these exercise the
	// route-revalidation path when an install lands mid-write.
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for j := 0; j < 600; j++ {
				k := writerKey(w, j)
				e.Insert(k)
				if j%3 == 0 {
					if err := e.Delete(k); err != nil {
						t.Errorf("writer %d: delete(%d): %v", w, k, err)
					}
				}
			}
		}(w)
	}

	// Mover: ping-pongs the resident row. A move can transiently fail with
	// "absent key" while a rebalance has the row staged; bounded sleepy
	// retries avoid spinning a single-CPU scheduler.
	moveOnce := func(from, to int64) bool {
		for try := 0; try < 20_000; try++ {
			if err := e.UpdateKey(from, to); err == nil {
				return true
			}
			time.Sleep(50 * time.Microsecond)
		}
		return false
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		started.Wait()
		for i := 0; i < 80; i++ {
			if !moveOnce(a, b) || !moveOnce(b, a) {
				t.Error("mover starved: UpdateKey kept failing")
				return
			}
		}
	}()

	// Rebalancer: flips between the two boundary sets, each flip migrating
	// rows both ways and installing a new partitioner under live traffic.
	writers.Add(1)
	go func() {
		defer writers.Done()
		started.Wait()
		for round := 0; round < 12; round++ {
			bounds := boundsA
			if round%2 == 0 {
				bounds = boundsB
			}
			if _, err := e.RebalanceTo(bounds); err != nil {
				t.Errorf("rebalance round %d: %v", round, err)
				return
			}
		}
	}()

	writers.Wait()
	stop.Store(true)
	readers.Wait()

	if torn.Load() != 0 {
		t.Fatalf("%d atomicity violations", torn.Load())
	}
	if views.Load() == 0 {
		t.Error("readers pinned no views")
	}
	if got := e.Rebalances(); got < 12 {
		t.Errorf("rebalances = %d, want >= 12", got)
	}
	if na, nb := e.PointQuery(a), e.PointQuery(b); na != 1 || nb != 0 {
		t.Errorf("final counts (%d,%d), want (1,0)", na, nb)
	}
	// Writer keys: j%3 == 0 deleted, the rest survive exactly once — across
	// however many boundary installs the writes raced.
	for w := 0; w < 2; w++ {
		for j := 0; j < 600; j += 7 {
			want := 1
			if j%3 == 0 {
				want = 0
			}
			if got := e.PointQuery(writerKey(w, j)); got != want {
				t.Fatalf("writer %d key %d: count %d, want %d", w, j, got, want)
			}
		}
	}
	if skew := e.Skew(); skew >= 3 {
		t.Errorf("final skew %.2f suspiciously high after rebalances", skew)
	}
}

// TestConcurrentMixedOpsNoRace floods the engine with a full hybrid mix from
// eight Execute workers and one concurrent ApplyBatch while the
// auto-retrainer runs — a pure race detector target with a final row-count
// sanity bound.
func TestConcurrentMixedOpsNoRace(t *testing.T) {
	e, keys := raceEngine(t)
	if err := e.StartAutoRetrain(shard.RetrainPolicy{
		CheckEvery: 2 * time.Millisecond,
		MinOps:     128,
		MaxDrift:   0.01,
	}); err != nil {
		t.Fatal(err)
	}
	defer e.StopAutoRetrain()

	spec, err := workload.Preset(workload.HybridSkewed, 6_000, 77)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := workload.Generate(keys, 400_000, spec)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	batch := ops[:512]
	var wg sync.WaitGroup
	per := (len(ops) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		part := ops[min(w*per, len(ops)):min((w+1)*per, len(ops))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, op := range part {
				e.Execute(op) // deletes of keys another worker removed fail
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.ApplyBatch(batch)
	}()
	wg.Wait()

	counts, bc := workload.Counts(ops), workload.Counts(batch)
	minLen := raceInitialRows - counts[workload.Q5Delete] - bc[workload.Q5Delete]
	maxLen := raceInitialRows + counts[workload.Q4Insert] + bc[workload.Q4Insert]
	if n := e.Len(); n < minLen || n > maxLen {
		t.Errorf("Len = %d outside feasible [%d, %d]", n, minLen, maxLen)
	}
}
