package casper

import (
	"reflect"
	"testing"
	"time"
)

// TestRetrainAdaptsToDrift trains for reads on the low domain, then shifts
// reads to the high domain under the auto-retrainer: the per-shard drift
// monitor must trigger a shadow re-layout that changes the partition sizes
// and keeps every row.
func TestRetrainAdaptsToDrift(t *testing.T) {
	keys := make([]int64, 8192)
	for i := range keys {
		keys[i] = int64(i)
	}
	e, err := Open(keys, Options{
		Mode:        ModeCasper,
		PayloadCols: 1,
		ChunkValues: 16_384,
		BlockBytes:  1024, // 128 values per block
		GhostFrac:   0.01,
		Partitions:  16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var initial []Op
	for i := 0; i < 2000; i++ {
		initial = append(initial, Op{Kind: PointQuery, Key: int64(i % 2048)})
		if i%4 == 0 {
			initial = append(initial, Op{Kind: Insert, Key: int64(4096 + i%2048)})
		}
	}
	if err := e.Train(initial, 1); err != nil {
		t.Fatal(err)
	}
	before := e.Layouts()[0]

	if err := e.StartAutoRetrain(RetrainPolicy{CheckEvery: 5 * time.Millisecond, MinOps: 500}); err != nil {
		t.Fatal(err)
	}
	// Drifted traffic: reads now hammer the high domain. Reads change no
	// rows, so only a re-layout can change the partition sizes.
	for i := 0; i < 2000; i++ {
		if _, err := e.Execute(Op{Kind: PointQuery, Key: int64(6144 + i%2048)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.Retrains() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if e.Retrains() == 0 {
		t.Fatal("auto-retrainer did not re-layout the drifted shard within 10s")
	}
	e.StopAutoRetrain()
	after := e.Layouts()[0]
	if reflect.DeepEqual(before.Sizes, after.Sizes) {
		t.Fatalf("layout did not adapt to drift: sizes %v", after.Sizes)
	}
	if e.Len() != len(keys) {
		t.Fatalf("Len = %d after retrain, want %d", e.Len(), len(keys))
	}
}

// TestMonitorRecordsAndRetrains drives mixed reads and inserts through the
// per-shard drift monitor under the auto-retrainer: nothing re-layouts
// before the worker starts, the recorded traffic triggers a shadow
// re-layout once it runs, every inserted row survives the swap, and no
// re-layout happens after the worker stops.
func TestMonitorRecordsAndRetrains(t *testing.T) {
	keys := UniformKeys(4000, 40_000, 13)
	e, err := Open(keys, testOptions(ModeCasper))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var ops []Op
	for i := 0; i < 300; i++ {
		ops = append(ops, Op{Kind: PointQuery, Key: int64(i * 100)})
		ops = append(ops, Op{Kind: Insert, Key: int64(i * 50)})
	}
	if _, err := e.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	if got := e.Retrains(); got != 0 {
		t.Fatalf("Retrains = %d before StartAutoRetrain, want 0", got)
	}

	p := RetrainPolicy{CheckEvery: 5 * time.Millisecond, MinOps: 100}
	if err := e.StartAutoRetrain(p); err != nil {
		t.Fatal(err)
	}
	if err := e.StartAutoRetrain(p); err == nil {
		t.Fatal("second StartAutoRetrain accepted while the worker runs")
	}
	for _, op := range ops {
		if op.Kind == Insert {
			op.Key++ // fresh keys: the first pass already holds i*50
		}
		if _, err := e.Execute(op); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.Retrains() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	e.StopAutoRetrain()
	done := e.Retrains()
	if done == 0 {
		t.Fatal("recorded traffic did not trigger a re-layout within 10s")
	}
	if len(e.Layouts()) == 0 {
		t.Fatal("no layouts after retrain")
	}
	// Data survives the re-partitioning cycle.
	if e.Len() != 4000+600 {
		t.Fatalf("Len = %d, want 4600", e.Len())
	}

	// A stopped worker records nothing and re-layouts nothing.
	for i := 0; i < 300; i++ {
		if _, err := e.Execute(Op{Kind: PointQuery, Key: int64(i * 100)}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if got := e.Retrains(); got != done {
		t.Fatalf("Retrains = %d after StopAutoRetrain, want %d", got, done)
	}
}
