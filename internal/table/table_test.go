package table

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"casper/internal/workload"
)

func testConfig(mode Mode) Config {
	return Config{
		Mode:        mode,
		PayloadCols: 4,
		ChunkValues: 512,
		BlockValues: 32,
		GhostFrac:   0.01,
		Partitions:  8,
	}
}

func buildTable(t *testing.T, mode Mode, n int) *Table {
	t.Helper()
	keys := workload.UniformKeys(n, int64(n)*10, 21)
	tb, err := New(keys, testConfig(mode), nil)
	if err != nil {
		t.Fatalf("New(%v): %v", mode, err)
	}
	return tb
}

func TestNewAllModes(t *testing.T) {
	for _, mode := range Modes() {
		tb := buildTable(t, mode, 2000)
		if tb.Len() != 2000 {
			t.Errorf("%v: Len = %d, want 2000", mode, tb.Len())
		}
		if tb.Chunks() < 2 {
			t.Errorf("%v: chunks = %d, want >= 2", mode, tb.Chunks())
		}
	}
}

func TestNewRejectsEmpty(t *testing.T) {
	if _, err := New(nil, testConfig(NoOrder), nil); err == nil {
		t.Fatal("empty key set accepted")
	}
}

// TestAllModesAgreeOnWorkload runs an identical operation stream through
// every layout mode and requires identical query answers — the layouts are
// interchangeable access paths over the same logical relation.
func TestAllModesAgreeOnWorkload(t *testing.T) {
	keys := workload.UniformKeys(3000, 30_000, 33)
	spec, err := workload.Preset(workload.HybridSkewed, 2500, 5)
	if err != nil {
		t.Fatal(err)
	}
	spec.Mix = append(spec.Mix,
		workload.MixEntry{Kind: workload.Q2RangeCount, Frac: 0.1, Access: workload.Uniform},
		workload.MixEntry{Kind: workload.Q3RangeSum, Frac: 0.1, Access: workload.Uniform},
		workload.MixEntry{Kind: workload.Q5Delete, Frac: 0.05, Access: workload.Uniform},
	)
	ops, err := workload.Generate(keys, 30_000, spec)
	if err != nil {
		t.Fatal(err)
	}

	var reference []int64
	var refMode Mode
	for i, mode := range Modes() {
		tb, err := New(keys, testConfig(mode), nil)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if mode == Casper {
			if err := tb.TrainLayout(ops[:500], 2); err != nil {
				t.Fatalf("TrainLayout: %v", err)
			}
		}
		results := make([]int64, len(ops))
		for j, op := range ops {
			results[j] = tb.Execute(op)
		}
		if i == 0 {
			reference = results
			refMode = mode
			continue
		}
		for j := range results {
			if results[j] != reference[j] {
				t.Fatalf("%v diverges from %v at op %d (%+v): %d vs %d",
					mode, refMode, j, ops[j], results[j], reference[j])
			}
		}
	}
}

func TestPointAndRangeQueries(t *testing.T) {
	keys := []int64{5, 10, 10, 20, 30, 40, 50, 60, 70, 80}
	for _, mode := range Modes() {
		tb, err := New(keys, Config{Mode: mode, PayloadCols: 2, ChunkValues: 100, BlockValues: 2, Partitions: 3}, nil)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got := tb.PointQuery(10); got != 2 {
			t.Errorf("%v: PointQuery(10) = %d, want 2", mode, got)
		}
		if got := tb.RangeCount(10, 50); got != 6 {
			t.Errorf("%v: RangeCount(10,50) = %d, want 6", mode, got)
		}
		if got := tb.RangeSum(10, 50); got != 160 {
			t.Errorf("%v: RangeSum(10,50) = %d, want 160", mode, got)
		}
	}
}

func TestInsertDeleteUpdateAcrossChunks(t *testing.T) {
	keys := make([]int64, 1000)
	for i := range keys {
		keys[i] = int64(i)
	}
	for _, mode := range Modes() {
		cfg := testConfig(mode)
		cfg.ChunkValues = 250
		tb, err := New(keys, cfg, nil)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if tb.Chunks() != 4 {
			t.Fatalf("%v: chunks = %d, want 4", mode, tb.Chunks())
		}
		// Cross-chunk update: key 10 (chunk 0) → 900 (chunk 3).
		if err := tb.UpdateKey(10, 900); err != nil {
			t.Fatalf("%v: UpdateKey: %v", mode, err)
		}
		if got := tb.PointQuery(10); got != 0 {
			t.Errorf("%v: old key still present", mode)
		}
		if got := tb.PointQuery(900); got != 2 {
			t.Errorf("%v: PointQuery(900) = %d, want 2", mode, got)
		}
		if tb.Len() != 1000 {
			t.Errorf("%v: Len = %d, want 1000", mode, tb.Len())
		}
		// Delete and insert.
		if err := tb.Delete(500); err != nil {
			t.Fatalf("%v: Delete: %v", mode, err)
		}
		tb.Insert(500)
		if tb.Len() != 1000 {
			t.Errorf("%v: Len after delete+insert = %d", mode, tb.Len())
		}
	}
}

func TestUpdatePreservesPayload(t *testing.T) {
	keys := make([]int64, 400)
	for i := range keys {
		keys[i] = int64(i) * 3
	}
	gen := func(key int64, col int) int32 { return int32(key*100) + int32(col) }
	for _, mode := range Modes() {
		cfg := testConfig(mode)
		cfg.ChunkValues = 100
		tb, err := New(keys, cfg, gen)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		// Same-chunk update.
		if err := tb.UpdateKey(30, 31); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got, ok := tb.Payload(31, 2); !ok || got != 30*100+2 {
			t.Errorf("%v: payload after same-chunk update = %d,%v, want %d", mode, got, ok, 30*100+2)
		}
		// Cross-chunk update (key 60 in chunk 0; 901 is absent and routes
		// to the last chunk).
		if err := tb.UpdateKey(60, 901); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got, ok := tb.Payload(901, 1); !ok || got != 60*100+1 {
			t.Errorf("%v: payload after cross-chunk update = %d,%v, want %d", mode, got, ok, 60*100+1)
		}
	}
}

func TestMultiRangeSum(t *testing.T) {
	keys := make([]int64, 100)
	for i := range keys {
		keys[i] = int64(i)
	}
	gen := func(key int64, col int) int32 {
		if col == 0 {
			return int32(key % 10) // filter column
		}
		return int32(key) // sum column
	}
	for _, mode := range Modes() {
		tb, err := New(keys, Config{Mode: mode, PayloadCols: 2, ChunkValues: 1000, BlockValues: 8, Partitions: 4}, gen)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		// Keys 20..39 with key%10 in [2,4]: 22,23,24,32,33,34.
		got := tb.MultiRangeSum(20, 39, []PayloadFilter{{Col: 0, Lo: 2, Hi: 4}}, 1)
		want := int64(22 + 23 + 24 + 32 + 33 + 34)
		if got != want {
			t.Errorf("%v: MultiRangeSum = %d, want %d", mode, got, want)
		}
	}
}

func TestTrainLayoutAdaptsToSkew(t *testing.T) {
	// Point queries hammer the high domain; inserts hammer the low
	// domain. Casper should use narrow partitions where reads land and
	// give ghost slots where inserts land.
	keys := make([]int64, 2048)
	for i := range keys {
		keys[i] = int64(i)
	}
	cfg := Config{
		Mode:        Casper,
		PayloadCols: 1,
		ChunkValues: 4096, // single chunk
		BlockValues: 64,
		GhostFrac:   0.05,
		Partitions:  16,
	}
	tb, err := New(keys, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Reads must outweigh insert ripple cost for fine partitioning to pay
	// off: point queries outnumber inserts 10:1 (Fig. 2a's trade-off).
	var sample []workload.Op
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4000; i++ {
		sample = append(sample, workload.Op{Kind: workload.Q1PointQuery, Key: 1536 + int64(rng.Intn(512))})
		if i%10 == 0 {
			sample = append(sample, workload.Op{Kind: workload.Q4Insert, Key: int64(rng.Intn(512))})
		}
	}
	if err := tb.TrainLayout(sample, 1); err != nil {
		t.Fatal(err)
	}
	ls := tb.Layouts()
	if len(ls) != 1 {
		t.Fatalf("layouts = %d, want 1", len(ls))
	}
	l := ls[0]
	if l.Partitions > 16 {
		t.Errorf("partition budget violated: %d > 16", l.Partitions)
	}
	if l.Partitions < 2 {
		t.Fatalf("optimizer kept a single partition: %v", l.Sizes)
	}
	// Ghost slots should concentrate where inserts land (low domain).
	// Sizes and the positions derived from them are in values.
	var earlyGhosts, lateGhosts, covered int
	for j, size := range l.Sizes {
		mid := covered + size/2
		if mid < 1024 {
			earlyGhosts += l.Ghosts[j]
		} else {
			lateGhosts += l.Ghosts[j]
		}
		covered += size
	}
	if earlyGhosts <= lateGhosts {
		t.Errorf("ghosts not skewed to insert region: early=%d late=%d", earlyGhosts, lateGhosts)
	}
	// Partitions in the read-heavy region should be narrower on average
	// than in the insert-heavy region.
	var readVals, readParts, restVals, restParts int
	covered = 0
	for _, size := range l.Sizes {
		mid := covered + size/2
		if mid >= 1536 {
			readVals += size
			readParts++
		} else {
			restVals += size
			restParts++
		}
		covered += size
	}
	if readParts == 0 || restParts == 0 {
		t.Fatalf("unexpected layout %v", l.Sizes)
	}
	readAvg := float64(readVals) / float64(readParts)
	restAvg := float64(restVals) / float64(restParts)
	if readAvg >= restAvg {
		t.Errorf("read-region partitions (%v values avg) should be narrower than the rest (%v)",
			readAvg, restAvg)
	}
}

func TestTrainLayoutRequiresCasper(t *testing.T) {
	tb := buildTable(t, Equi, 500)
	if err := tb.TrainLayout(nil, 1); err == nil {
		t.Fatal("TrainLayout accepted on Equi table")
	}
}

func TestTrainLayoutPreservesData(t *testing.T) {
	keys := workload.UniformKeys(1500, 15_000, 8)
	cfg := testConfig(Casper)
	tb, err := New(keys, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := workload.Preset(workload.HybridSkewed, 1000, 3)
	sample, _ := workload.Generate(keys, 15_000, spec)
	before := tb.RangeSum(0, 15_000)
	if err := tb.TrainLayout(sample, 2); err != nil {
		t.Fatal(err)
	}
	if after := tb.RangeSum(0, 15_000); after != before {
		t.Fatalf("data changed across retrain: %d -> %d", before, after)
	}
	if tb.Len() != 1500 {
		t.Fatalf("Len = %d, want 1500", tb.Len())
	}
}

func TestExecuteParallelMatchesSerial(t *testing.T) {
	keys := workload.UniformKeys(2000, 20_000, 44)
	spec, _ := workload.Preset(workload.ReadOnlyUniform, 2000, 6)
	ops, err := workload.Generate(keys, 20_000, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Read-only ops commute, so parallel and serial sums must match.
	var readOnly []workload.Op
	for _, op := range ops {
		if op.Kind == workload.Q1PointQuery || op.Kind == workload.Q2RangeCount {
			readOnly = append(readOnly, op)
		}
	}
	tb := buildTable(t, Casper, 2000)
	serial := tb.ExecuteAll(readOnly)
	parallel := tb.ExecuteParallel(readOnly, 4)
	if serial != parallel {
		t.Fatalf("parallel sum %d != serial %d", parallel, serial)
	}
}

func TestParallelMixedWorkloadIsRaceFree(t *testing.T) {
	// Run under -race: concurrent mixed operations must not race even
	// though results are order-dependent.
	keys := workload.UniformKeys(2000, 20_000, 45)
	spec, _ := workload.Preset(workload.HybridSkewed, 3000, 7)
	ops, err := workload.Generate(keys, 20_000, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{Casper, StateOfArt} {
		cfg := testConfig(mode)
		tb, err := New(keys, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		tb.ExecuteParallel(ops, 4)
	}
}

func TestDuplicateRunsCrossingChunkBoundary(t *testing.T) {
	keys := make([]int64, 0, 600)
	for i := 0; i < 200; i++ {
		keys = append(keys, 1)
	}
	for i := 0; i < 400; i++ {
		keys = append(keys, int64(i+10))
	}
	cfg := testConfig(Casper)
	cfg.ChunkValues = 128
	tb, err := New(keys, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.PointQuery(1); got != 200 {
		t.Fatalf("PointQuery(1) = %d, want 200 (duplicates split across chunks)", got)
	}
}

// TestDeleteRowExactSelectsDuplicateByPayload: with duplicate keys carrying
// different payloads, DeleteRowExact must remove exactly the requested row
// and leave the other duplicates untouched — the property retrain-journal
// replay relies on for byte-identical shadows.
func TestDeleteRowExactSelectsDuplicateByPayload(t *testing.T) {
	for _, mode := range Modes() {
		keys := []int64{5, 10, 10, 10, 20}
		rows := [][]int32{
			{50, 51, 52, 53},
			{100, 101, 102, 103},
			{200, 201, 202, 203},
			{300, 301, 302, 303},
			{20, 21, 22, 23},
		}
		tb, err := NewFromRows(keys, rows, testConfig(mode))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if err := tb.DeleteRowExact(10, []int32{200, 201, 202, 203}); err != nil {
			t.Fatalf("%v: DeleteRowExact: %v", mode, err)
		}
		if got := tb.PointQuery(10); got != 2 {
			t.Fatalf("%v: PointQuery(10) = %d after exact delete, want 2", mode, got)
		}
		// The two survivors are the other duplicates, payloads intact.
		seen := map[int32]bool{}
		for i := 0; i < 2; i++ {
			row, err := tb.TakeRow(10)
			if err != nil {
				t.Fatalf("%v: TakeRow survivor %d: %v", mode, i, err)
			}
			seen[row[0]] = true
		}
		if !seen[100] || !seen[300] {
			t.Fatalf("%v: survivors %v, want payloads 100 and 300", mode, seen)
		}
		// A payload that matches no duplicate fails and restores the rows.
		if err := tb.DeleteRowExact(5, []int32{9, 9, 9, 9}); err == nil {
			t.Fatalf("%v: DeleteRowExact with unknown payload should error", mode)
		}
		if got := tb.PointQuery(5); got != 1 {
			t.Fatalf("%v: PointQuery(5) = %d after failed exact delete, want 1", mode, got)
		}
		if v, ok := tb.Payload(5, 0); !ok || v != 50 {
			t.Fatalf("%v: Payload(5,0) = (%d,%v) after failed exact delete, want (50,true)", mode, v, ok)
		}
	}
}

// TestUpdateKeyRowReturnsMovedPayload: UpdateKeyRow must report the payload
// of the duplicate it moved, for both same-chunk and cross-chunk moves.
func TestUpdateKeyRowReturnsMovedPayload(t *testing.T) {
	keys := []int64{10, 20}
	rows := [][]int32{{100, 101, 102, 103}, {200, 201, 202, 203}}
	tb, err := NewFromRows(keys, rows, testConfig(Casper))
	if err != nil {
		t.Fatal(err)
	}
	row, err := tb.UpdateKeyRow(20, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(row) != 4 || row[0] != 200 {
		t.Fatalf("moved payload %v, want [200 201 202 203]", row)
	}
	if v, ok := tb.Payload(15, 0); !ok || v != 200 {
		t.Fatalf("Payload(15,0) = (%d,%v), want (200,true)", v, ok)
	}
	if _, err := tb.UpdateKeyRow(999, 1); err == nil {
		t.Fatal("UpdateKeyRow of absent key should error")
	}
}

// TestSnapshotConsistencyContract pins Snapshot's documented contract:
// (a) each chunk is observed atomically — no torn row ever appears, even
// under concurrent writers — and (b) with writers serialized externally the
// snapshot is an exact, key-sorted image of the table.
func TestSnapshotConsistencyContract(t *testing.T) {
	keys := make([]int64, 600)
	for i := range keys {
		keys[i] = int64(i * 3)
	}
	tb, err := New(keys, testConfig(Casper), nil)
	if err != nil {
		t.Fatal(err)
	}

	// (a) Concurrent inserts: every row in every snapshot must carry the
	// DefaultPayload of its key — a torn row (key from one row, payload
	// from another) would violate payload[c] == key+c.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ {
			tb.Insert(int64(i*5 + 1))
		}
	}()
	for {
		gotKeys, gotRows := tb.Snapshot()
		if len(gotRows) != len(gotKeys) {
			t.Fatalf("snapshot shape: %d rows for %d keys", len(gotRows), len(gotKeys))
		}
		for i, k := range gotKeys {
			if i > 0 && k < gotKeys[i-1] {
				t.Fatalf("snapshot keys not sorted at %d", i)
			}
			for c, v := range gotRows[i] {
				if v != DefaultPayload(k, c) {
					t.Fatalf("torn row: key %d col %d = %d, want %d", k, c, v, DefaultPayload(k, c))
				}
			}
		}
		select {
		case <-done:
			// (b) Writers quiesced: the snapshot is exact.
			gotKeys, _ := tb.Snapshot()
			if len(gotKeys) != len(keys)+400 {
				t.Fatalf("quiesced snapshot has %d rows, want %d", len(gotKeys), len(keys)+400)
			}
			return
		default:
		}
	}
}

// TestChunkLayoutsRoundTrip: RestoreLayouts on a table rebuilt from a
// snapshot reproduces the trained physical layout exactly.
func TestChunkLayoutsRoundTrip(t *testing.T) {
	tb := buildTable(t, Casper, 1500)
	sample := make([]workload.Op, 0, 300)
	for i := 0; i < 300; i++ {
		sample = append(sample, workload.Op{Kind: workload.Q1PointQuery, Key: int64(i % 200)})
	}
	if err := tb.TrainLayout(sample, 1); err != nil {
		t.Fatalf("TrainLayout: %v", err)
	}
	specs := tb.ChunkLayouts()
	trained := 0
	for _, s := range specs {
		if s.Trained {
			trained++
		}
	}
	if trained == 0 {
		t.Fatal("no chunk reports a trained layout after TrainLayout")
	}

	snapKeys, snapRows := tb.Snapshot()
	rebuilt, err := NewFromRows(snapKeys, snapRows, testConfig(Casper))
	if err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.RestoreLayouts(specs); err != nil {
		t.Fatalf("RestoreLayouts: %v", err)
	}
	got, want := rebuilt.Layouts(), tb.Layouts()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored layouts diverged:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestKeysInRangeMatchesKeys: the bounded iterator must agree with a filter
// over the full Keys() listing on every layout mode — across duplicates,
// chunk boundaries, mutations, and empty/reversed ranges. The shard
// rebalancer's ownership-delta staging and straggler rescan both ride on
// this equivalence.
func TestKeysInRangeMatchesKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, mode := range Modes() {
		keys := make([]int64, 0, 1_200)
		for i := 0; i < 1_000; i++ {
			keys = append(keys, rng.Int63n(5_000))
		}
		for i := 0; i < 200; i++ {
			keys = append(keys, 777) // a duplicate run
		}
		cfg := testConfig(mode)
		cfg.ChunkValues = 256 // force several chunks so ranges straddle them
		tb, err := New(keys, cfg, nil)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for i := 0; i < 150; i++ { // mutate so live positions have holes
			switch rng.Intn(3) {
			case 0:
				tb.Insert(rng.Int63n(5_000))
			case 1:
				_ = tb.Delete(keys[rng.Intn(len(keys))])
			default:
				_ = tb.UpdateKey(keys[rng.Intn(len(keys))], rng.Int63n(5_000))
			}
		}
		all := tb.Keys()
		filtered := func(lo, hi int64) []int64 {
			var out []int64
			for _, k := range all {
				if lo <= k && k <= hi {
					out = append(out, k)
				}
			}
			return out
		}
		ranges := [][2]int64{
			{0, 5_000},          // everything
			{777, 777},          // the duplicate run
			{-100, -1},          // empty below
			{6_000, 9_000},      // empty above
			{250, 260},          // narrow
			{0, 2_500},          // half
			{2_400, 2_700},      // chunk-straddling interior
			{-1 << 40, 1 << 40}, // beyond the domain on both sides
		}
		for _, r := range ranges {
			got, want := tb.KeysInRange(r[0], r[1]), filtered(r[0], r[1])
			if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
				t.Fatalf("%v: KeysInRange(%d,%d) = %d keys, filter of Keys() = %d keys",
					mode, r[0], r[1], len(got), len(want))
			}
		}
		if got := tb.KeysInRange(10, 5); got != nil {
			t.Fatalf("%v: reversed range returned %v, want nil", mode, got)
		}
	}
}

// scanMultiRangeSum is the row-materializing reference for MultiRangeSum:
// it drains ScanRange and folds the filters over each copied row.
func scanMultiRangeSum(tb *Table, lo, hi int64, filters []PayloadFilter, sumCol int) int64 {
	it := tb.ScanRange(lo, hi)
	defer it.Close()
	var buf RowBuf
	var sum int64
	for it.NextBatch(&buf, 0) {
	rowLoop:
		for _, row := range buf.Rows {
			for _, f := range filters {
				if x := row[f.Col]; x < f.Lo || x > f.Hi {
					continue rowLoop
				}
			}
			sum += int64(row[sumCol])
		}
	}
	return sum
}

// TestMultiRangeSumMatchesScanRange checks the columnar MultiRangeSum
// kernel against the ScanRange reference in every layout mode, after
// interleaved inserts, deletes and key updates (duplicate keys with
// distinct payloads, ranges crossing chunk boundaries), and pins that
// empty or non-qualifying ranges never touch out-of-range columns.
func TestMultiRangeSumMatchesScanRange(t *testing.T) {
	keys := make([]int64, 3_000)
	for i := range keys {
		keys[i] = int64(i) * 4
	}
	gen := func(key int64, col int) int32 { return int32((key*7 + int64(col)*13) % 101) }
	filters := []PayloadFilter{{Col: 1, Lo: 10, Hi: 80}, {Col: 3, Lo: -5, Hi: 60}}
	for _, mode := range Modes() {
		cfg := testConfig(mode)
		cfg.ChunkValues = 400
		tb, err := New(keys, cfg, gen)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if tb.Chunks() < 4 {
			t.Fatalf("%v: %d chunks, want several", mode, tb.Chunks())
		}
		rng := rand.New(rand.NewSource(int64(mode) + 5))
		for i := 0; i < 2_000; i++ {
			k := int64(rng.Intn(12_000))
			switch rng.Intn(4) {
			case 0:
				tb.Insert(k)
			case 1:
				_ = tb.Delete(k)
			case 2:
				_ = tb.UpdateKey(k, int64(rng.Intn(12_000)))
			default:
				tb.Insert(6_000) // one long duplicate run
			}
		}
		for q := 0; q < 300; q++ {
			lo := int64(rng.Intn(12_400)) - 200
			hi := lo + int64(rng.Intn(3_000))
			for _, sumCol := range []int{0, 2} {
				want := scanMultiRangeSum(tb, lo, hi, filters, sumCol)
				if got := tb.MultiRangeSum(lo, hi, filters, sumCol); got != want {
					t.Fatalf("%v: MultiRangeSum(%d, %d, sumCol %d) = %d, want %d", mode, lo, hi, sumCol, got, want)
				}
			}
			want := scanMultiRangeSum(tb, lo, hi, nil, 1)
			if got := tb.MultiRangeSum(lo, hi, nil, 1); got != want {
				t.Fatalf("%v: unfiltered MultiRangeSum(%d, %d) = %d, want %d", mode, lo, hi, got, want)
			}
		}
		if got := tb.MultiRangeSum(-1_000, math.MaxInt64, nil, 0); got != scanMultiRangeSum(tb, -1_000, math.MaxInt64, nil, 0) {
			t.Fatalf("%v: full-range MultiRangeSum = %d", mode, got)
		}

		// Empty ranges (keys are multiples of 4 or inserted below 12,000),
		// hi < lo, and a filter no row passes: 0, and no column beyond
		// PayloadCols is read.
		bad := cfg.PayloadCols + 3
		badFilters := []PayloadFilter{{Col: bad, Lo: 0, Hi: 0}}
		for _, r := range [][2]int64{{20_001, 20_003}, {-50, -1}, {500, 100}} {
			if got := tb.MultiRangeSum(r[0], r[1], badFilters, bad); got != 0 {
				t.Fatalf("%v: MultiRangeSum over empty [%d, %d] = %d", mode, r[0], r[1], got)
			}
		}
		never := []PayloadFilter{{Col: 0, Lo: 1, Hi: 0}, {Col: bad, Lo: 0, Hi: 0}}
		if got := tb.MultiRangeSum(0, 12_000, never, bad); got != 0 {
			t.Fatalf("%v: MultiRangeSum with no qualifying row = %d", mode, got)
		}
	}
}
