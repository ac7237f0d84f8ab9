package shard

// Admission-control suite. The centerpiece is a flash-crowd race test meant
// for -race: concurrent per-tenant writers slam an admission-limited durable
// engine while View-pinned scanners read through it and a follower tails its
// WAL. Three invariants are asserted exactly:
//
//   - Conservation: every submitted write is counted exactly once as
//     admitted or shed — the obs counters equal the writers' own atomic
//     tallies, and admitted + shed == submitted.
//   - No torn outcome: an op is never both shed and applied. Every op
//     inserts a globally unique key, so presence in the engine (and in the
//     follower's converged image) is equivalent to having been admitted.
//   - No spurious overload: ErrOverload is never returned while the
//     writer's lane or the shared bucket holds a full token — asserted via
//     the onShed seam, which runs under the controller mutex at the moment
//     of the decision.
//
// Around the centerpiece: unit coverage for the disabled path, both
// backpressure shapes, Engine.Insert's shed contract, tenant
// fairness under a flooding hog, and the drift×lag governor.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"casper/internal/wal"
	"casper/internal/workload"
)

func admissionConfig(dir string, pol AdmissionPolicy) Config {
	cfg := rebalanceConfig()
	cfg.Dir = dir
	cfg.Admission = pol
	return cfg
}

func TestAdmissionRaceFlashCrowd(t *testing.T) {
	const (
		tenants        = 4
		writersPerLane = 3
		opsPerWriter   = 400
		initialRows    = 2_000
		domain         = 100_000
	)
	keys := workload.UniformKeys(initialRows, domain, 9)
	cfg := admissionConfig(t.TempDir(), AdmissionPolicy{
		MaxWriteRate: 30_000,
		Burst:        256,
		MaxWait:      0, // flash crowd sheds immediately
		Tenants:      tenants,
		AdaptEvery:   10 * time.Millisecond,
		LagRef:       512,
	})
	e, err := New(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// The seam runs under the controller mutex at every shed decision;
	// both buckets must be below one full token or the shed was spurious.
	var spurious atomic.Int64
	e.adm.onShed = func(lane, shared float64) {
		if lane >= 1 || shared >= 1 {
			spurious.Add(1)
		}
	}

	// Follower: boot from a checkpoint, then tail every shard's WAL and
	// apply records concurrently with the crowd.
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	boot, err := NewFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tailers := make([]*wal.Tailer, len(boot.FromSeqs))
	for i, seq := range boot.FromSeqs {
		tl, err := wal.OpenTailer(WALDir(cfg.Dir, i), seq)
		if err != nil {
			t.Fatal(err)
		}
		tailers[i] = tl
		defer tl.Close()
	}
	rep := boot.Engine.NewReplicator(boot.BoundsEpoch)
	pollOnce := func() (int, error) {
		var recs []ReplicatedRecord
		for i, tl := range tailers {
			rs, err := tl.Poll()
			if err != nil {
				return 0, err
			}
			for _, r := range rs {
				recs = append(recs, ReplicatedRecord{Shard: i, Rec: r})
			}
		}
		return rep.Apply(recs), nil
	}
	stopTail := make(chan struct{})
	tailErr := make(chan error, 1)
	go func() {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopTail:
				tailErr <- nil
				return
			case <-tick.C:
				if _, err := pollOnce(); err != nil {
					tailErr <- err
					return
				}
			}
		}
	}()

	// View-pinned scanners: each read pins an epoch snapshot for its whole
	// body, racing the crowd's inserts and the follower-independent
	// background minting.
	stopScan := make(chan struct{})
	var scanWG sync.WaitGroup
	for s := 0; s < 3; s++ {
		scanWG.Add(1)
		go func(s int) {
			defer scanWG.Done()
			for {
				select {
				case <-stopScan:
					return
				default:
				}
				e.View(func(v *View) {
					lo := int64(s * domain / 4)
					got := v.RangeCount(lo, lo+int64(domain/4))
					if got < 0 {
						t.Errorf("scanner %d: negative range count %d", s, got)
					}
					c := v.Scan(lo, lo+2_000, ScanOptions{Limit: 64})
					for c.Next() {
					}
					c.Close()
				})
			}
		}(s)
	}

	// The crowd. Every op gets a globally unique key, so applied ⇔ present.
	type outcome struct {
		key  int64
		shed bool
	}
	var submitted, admitted, shed atomic.Int64
	results := make([][]outcome, tenants*writersPerLane)
	var crowdWG sync.WaitGroup
	for tn := 0; tn < tenants; tn++ {
		for wr := 0; wr < writersPerLane; wr++ {
			idx := tn*writersPerLane + wr
			crowdWG.Add(1)
			go func(tn, idx int) {
				defer crowdWG.Done()
				w := e.Writer(tn)
				out := make([]outcome, 0, opsPerWriter)
				base := int64(1_000_000_000) + int64(idx)*int64(opsPerWriter)
				for i := 0; i < opsPerWriter; i++ {
					key := base + int64(i)
					submitted.Add(1)
					err := w.Insert(key)
					switch {
					case err == nil:
						admitted.Add(1)
						out = append(out, outcome{key: key})
					case errors.Is(err, ErrOverload):
						shed.Add(1)
						out = append(out, outcome{key: key, shed: true})
					default:
						t.Errorf("writer %d: unexpected insert error: %v", idx, err)
					}
				}
				results[idx] = out
			}(tn, idx)
		}
	}
	crowdWG.Wait()
	close(stopScan)
	scanWG.Wait()

	if got := spurious.Load(); got != 0 {
		t.Fatalf("%d sheds fired while a bucket held a full token", got)
	}
	if admitted.Load()+shed.Load() != submitted.Load() {
		t.Fatalf("oracle counts leak: admitted %d + shed %d != submitted %d",
			admitted.Load(), shed.Load(), submitted.Load())
	}
	if shed.Load() == 0 {
		t.Fatal("flash crowd shed nothing; the test did not exercise overload")
	}
	snap := e.Metrics()
	if snap.Admission.Admitted != uint64(admitted.Load()) || snap.Admission.Shed != uint64(shed.Load()) {
		t.Fatalf("obs counters diverge from oracle: admitted %d/%d, shed %d/%d",
			snap.Admission.Admitted, admitted.Load(), snap.Admission.Shed, shed.Load())
	}

	// No op both shed and applied: unique keys make presence ⇔ admitted.
	for _, out := range results {
		for _, o := range out {
			got := e.PointQuery(o.key)
			if o.shed && got != 0 {
				t.Fatalf("key %d was shed AND applied (count %d)", o.key, got)
			}
			if !o.shed && got != 1 {
				t.Fatalf("key %d was admitted but count = %d", o.key, got)
			}
		}
	}
	if want := initialRows + int(admitted.Load()); e.Len() != want {
		t.Fatalf("Len = %d, want %d (initial + admitted)", e.Len(), want)
	}

	// Quiesce and drain the follower: its image must converge on exactly
	// the admitted writes — a shed op must never surface downstream either.
	if err := e.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for boot.Engine.Len() != e.Len() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	close(stopTail)
	if err := <-tailErr; err != nil {
		t.Fatalf("tailer: %v", err)
	}
	// One final poll on this goroutine picks up anything between the last
	// tick and the stop.
	if _, err := pollOnce(); err != nil {
		t.Fatal(err)
	}
	if got, want := engineKeys(boot.Engine), engineKeys(e); !int64sEqual(got, want) {
		t.Fatalf("follower diverged: %d keys vs leader %d", len(got), len(want))
	}
	if n := rep.Mismatches(); n != 0 {
		t.Fatalf("replicator mismatches: %d", n)
	}
}

func TestAdmissionDisabledIsFree(t *testing.T) {
	e, err := New(workload.UniformKeys(100, 10_000, 1), rebalanceConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := e.Writer(7)
	if err := w.Insert(50_000); err != nil {
		t.Fatalf("Writer.Insert without admission: %v", err)
	}
	if err := w.Delete(50_000); err != nil {
		t.Fatalf("Writer.Delete without admission: %v", err)
	}
	snap := e.Metrics()
	if snap.Admission.Admitted != 0 || snap.Admission.Shed != 0 || snap.Admission.Queued != 0 {
		t.Fatalf("admission counters moved on a disabled engine: %+v", snap.Admission)
	}
}

func TestAdmissionImmediateShed(t *testing.T) {
	e, err := New(workload.UniformKeys(100, 10_000, 1), admissionConfig(t.TempDir(), AdmissionPolicy{
		MaxWriteRate: 100, // trickle refill
		Burst:        8,
		MaxWait:      0,
		AdaptEvery:   time.Hour, // governor quiet for the test
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	w := e.Writer(0)
	var admitted, shed int
	for i := 0; i < 50; i++ {
		err := w.Insert(100_000 + int64(i))
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, ErrOverload):
			shed++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if shed == 0 {
		t.Fatal("burst of 50 over a bucket of 8 shed nothing")
	}
	if admitted < 8 {
		t.Fatalf("admitted %d, want at least the burst", admitted)
	}
	snap := e.Metrics()
	if snap.Admission.Admitted != uint64(admitted) || snap.Admission.Shed != uint64(shed) {
		t.Fatalf("counters diverge: %+v vs admitted %d shed %d", snap.Admission, admitted, shed)
	}
	if want := 100 + admitted; e.Len() != want {
		t.Fatalf("Len = %d, want %d", e.Len(), want)
	}
}

func TestAdmissionBlocksThenSheds(t *testing.T) {
	e, err := New(workload.UniformKeys(100, 10_000, 1), admissionConfig(t.TempDir(), AdmissionPolicy{
		MaxWriteRate: 20, // one token per 50ms
		Burst:        4,
		MaxWait:      30 * time.Millisecond,
		AdaptEvery:   time.Hour,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	w := e.Writer(0)
	for i := 0; i < 4; i++ { // drain the burst
		if err := w.Insert(200_000 + int64(i)); err != nil {
			t.Fatalf("burst insert %d: %v", i, err)
		}
	}
	start := time.Now()
	err = w.Insert(300_000)
	waited := time.Since(start)
	if err == nil {
		// A token refilled within the deadline (legal on a slow machine);
		// the wait must still have been recorded.
		if waited < 10*time.Millisecond {
			t.Fatalf("exhausted bucket admitted after only %v", waited)
		}
	} else if !errors.Is(err, ErrOverload) {
		t.Fatalf("unexpected error: %v", err)
	} else if waited < 25*time.Millisecond {
		t.Fatalf("shed after %v, want a block of ~MaxWait first", waited)
	}
	snap := e.Metrics()
	if snap.Admission.Queued == 0 {
		t.Fatal("blocked write was not counted as queued")
	}
	if snap.Admission.WaitNs.Count == 0 {
		t.Fatal("blocked write recorded no wait time")
	}
}

// TestAdmissionEngineInsertSheds pins Engine.Insert's admission contract:
// it is gated like Delete and UpdateKey, so once the burst is spent it sheds
// with ErrOverload, a shed insert applies nothing, and every attempt counts
// exactly once as admitted or shed.
func TestAdmissionEngineInsertSheds(t *testing.T) {
	e, err := New(workload.UniformKeys(100, 10_000, 1), admissionConfig(t.TempDir(), AdmissionPolicy{
		MaxWriteRate: 400,
		Burst:        4,
		MaxWait:      0, // shed immediately
		AdaptEvery:   time.Hour,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const n = 40
	var admitted, shed int
	for i := 0; i < n; i++ {
		key := 400_000 + int64(i)
		switch err := e.Insert(key); {
		case err == nil:
			admitted++
			if got := e.PointQuery(key); got != 1 {
				t.Fatalf("admitted Insert(%d): PointQuery = %d, want 1", key, got)
			}
		case errors.Is(err, ErrOverload):
			shed++
			if got := e.PointQuery(key); got != 0 {
				t.Fatalf("shed Insert(%d) was applied: PointQuery = %d", key, got)
			}
		default:
			t.Fatalf("Insert(%d): %v", key, err)
		}
	}
	if shed == 0 {
		t.Fatalf("no Insert shed in %d attempts against a burst of 4", n)
	}
	if want := 100 + admitted; e.Len() != want {
		t.Fatalf("Len = %d, want %d", e.Len(), want)
	}
	snap := e.Metrics()
	if snap.Admission.Admitted != uint64(admitted) || snap.Admission.Shed != uint64(shed) {
		t.Fatalf("counters admitted %d shed %d, want %d and %d",
			snap.Admission.Admitted, snap.Admission.Shed, admitted, shed)
	}
	if got := snap.Admission.Admitted + snap.Admission.Shed; got != n {
		t.Fatalf("admitted + shed = %d, want %d attempts", got, n)
	}
}

func TestAdmissionTenantFairness(t *testing.T) {
	e, err := New(workload.UniformKeys(100, 10_000, 1), admissionConfig(t.TempDir(), AdmissionPolicy{
		MaxWriteRate: 2_000,
		Burst:        40, // lane cap 20 each
		MaxWait:      0,
		Tenants:      2,
		AdaptEvery:   time.Hour,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// The polite tenant runs a fixed number of ops so the test is not
	// sensitive to scheduler starvation on small machines (a wall-clock
	// window under a hot-looping hog can leave a sleeping goroutine only a
	// handful of turns on GOMAXPROCS=1); the hog floods until the polite
	// tenant is done. More wall time only mints the polite lane MORE
	// guaranteed tokens, so the invariant is unaffected by machine speed.
	const politeOps = 30
	var hogAdmitted, hogShed, politeAdmitted, politeShed atomic.Int64
	var wg sync.WaitGroup
	politeDone := make(chan struct{})
	wg.Add(2)
	go func() { // the hog floods lane 0 far over the total rate
		defer wg.Done()
		w := e.Writer(0)
		for i := int64(0); ; i++ {
			select {
			case <-politeDone:
				return
			default:
			}
			if err := w.Insert(500_000 + i); err == nil {
				hogAdmitted.Add(1)
			} else {
				hogShed.Add(1)
			}
		}
	}()
	go func() { // the polite tenant stays under its guaranteed half
		defer wg.Done()
		defer close(politeDone)
		w := e.Writer(1)
		for i := int64(0); i < politeOps; i++ {
			if err := w.Insert(9_500_000 + i); err == nil {
				politeAdmitted.Add(1)
			} else {
				politeShed.Add(1)
			}
			time.Sleep(3 * time.Millisecond) // ~330/s, under the 1000/s lane
		}
	}()
	wg.Wait()

	if hogShed.Load() == 0 {
		t.Fatal("the hog was never shed; it did not overload its share")
	}
	// The polite tenant consumes well under its lane's refill rate, so its
	// guaranteed slice must admit nearly everything it submits even while
	// the hog drains the shared bucket dry.
	if politeAdmitted.Load() < politeOps*2/3 {
		t.Fatalf("polite tenant admitted only %d of %d; its lane guarantee did not hold (shed %d)",
			politeAdmitted.Load(), politeOps, politeShed.Load())
	}
	// The lane guarantee, not perfect isolation: the polite tenant must be
	// admitted at a far higher ratio than the flooding hog.
	politeFrac := float64(politeAdmitted.Load()) / float64(politeAdmitted.Load()+politeShed.Load())
	hogFrac := float64(hogAdmitted.Load()) / float64(hogAdmitted.Load()+hogShed.Load())
	if politeFrac < hogFrac {
		t.Fatalf("polite admit fraction %.3f below the hog's %.3f", politeFrac, hogFrac)
	}
}

func TestAdmissionGovernorThrottlesAndRecovers(t *testing.T) {
	e, err := New(workload.UniformKeys(1_000, 10_000, 1), admissionConfig(t.TempDir(), AdmissionPolicy{
		MaxWriteRate: 10_000,
		Burst:        64,
		MaxWait:      0,
		AdaptEvery:   5 * time.Millisecond,
		MinRateFrac:  0.1,
		LagRef:       128,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Never-trained shards report full drift; once the recorded backlog
	// passes LagRef the governor must squeeze the rate to the floor.
	for i := 0; i < 600; {
		if err := e.Insert(600_000 + int64(i)); errors.Is(err, ErrOverload) {
			time.Sleep(100 * time.Microsecond) // retry the shed insert
			continue
		}
		i++
	}
	deadline := time.Now().Add(2 * time.Second)
	var rate float64
	for time.Now().Before(deadline) {
		rate = e.Metrics().Admission.RateLimit
		if rate < 10_000*0.2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rate >= 10_000*0.2 {
		t.Fatalf("governor rate %.0f under full drift pressure, want near the %.0f floor", rate, 10_000*0.1)
	}

	// Training rebases every monitor: drift collapses and the rate must
	// recover to the ceiling.
	sample := make([]workload.Op, 0, 1_000)
	for i := 0; i < 1_000; i++ {
		sample = append(sample, workload.Op{Kind: workload.Q1PointQuery, Key: int64(i * 10)})
	}
	if err := e.Train(sample, 1); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		rate = e.Metrics().Admission.RateLimit
		if rate > 10_000*0.95 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("governor rate %.0f after retrain, want recovery toward 10000", rate)
}
