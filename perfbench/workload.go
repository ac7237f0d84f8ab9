package main

import (
	"fmt"
	"math/rand"

	"casper"
	"casper/internal/workload"
)

// opKind is one engine call the benchmark issues.
type opKind uint8

const (
	opPoint  opKind = iota // PointQuery
	opCount                // RangeCount
	opSum                  // RangeSum
	opMulti                // MultiRangeSum
	opScan                 // Scan, drained up to its LIMIT, then Close
	opInsert               // Insert
	opDelete               // Delete
	opUpdate               // UpdateKey
)

// class groups op kinds into the four latency classes the metrics report.
type class uint8

const (
	classPoint class = iota
	classAgg
	classScan
	classWrite
	nClass
)

var classNames = [nClass]string{"point", "agg", "scan", "write"}

func (k opKind) class() class {
	switch k {
	case opPoint:
		return classPoint
	case opCount, opSum, opMulti:
		return classAgg
	case opScan:
		return classScan
	}
	return classWrite
}

// op is one generated operation with the answer the oracle expects.
// key2 is the range end, or the new key of an update. For a scan, want is
// the expected row count and hash the hash of the expected key sequence;
// for a count, sum or point query want is the expected value; for a
// MultiRangeSum, check says whether want is unambiguous.
type op struct {
	key, key2 int64
	want      int64
	hash      uint64
	limit     int32
	kind      opKind
	check     bool
	// probe marks a read of a class the workload's mix lacks: it is timed
	// into its class but stays out of ops_per_s.
	probe bool
}

// spec is one benchmark workload. Its parameters are the record of what the
// workload is; README.md explains why each exists.
type spec struct {
	name    string
	rows    int
	shards  int
	byRange bool
	// mix is the op mix internal/workload generates the stream from. A
	// multiShare of its RangeSums are issued as MultiRangeSum.
	mix []workload.MixEntry
	// rangeRows is the row count of a range read at load density.
	rangeRows int
	// rate is the number of mix ops the untraced run replays per second of
	// --seconds: about what a 2-CPU host completes in that time. A fixed
	// count keeps the work, and the state the stream builds, the same
	// whatever the engine's speed.
	rate int
	// probeEvery is how many mix ops pass between two probe reads (0 =
	// none), for a mix that lacks aggregates and scans.
	probeEvery int
	// setups is how many times the untraced run sets the engine up.
	setups int
	// ladderOps is the traced replay length per rung for --seconds 10.
	ladderOps int
}

const (
	payloadCols = 15
	trainOps    = 100000
	// domainFactor sets the key domain to [0, domainFactor*rows].
	domainFactor = 10
	// multiShare is the share of RangeSums issued as MultiRangeSum:
	// htap-range's 10% of its 45% range sums. internal/workload generates
	// no MultiRangeSum (Q7) ops.
	multiShare = 0.10 / 0.45
)

// probeMix draws aggregates in htap-range's proportions (RangeSum 35 :
// RangeCount 15 : MultiRangeSum 10) and as many scans.
var probeMix = []workload.MixEntry{
	{Kind: workload.Q3RangeSum, Frac: 0.45, Access: workload.Uniform},
	{Kind: workload.Q2RangeCount, Frac: 0.15, Access: workload.Uniform},
	{Kind: workload.Q8Scan, Frac: 0.60, Access: workload.Uniform},
}

var workloads = []*spec{
	{
		name: "hybrid-point", rows: 1_000_000, shards: 4, byRange: true,
		mix:       presetMix(workload.HybridSkewed),
		rangeRows: 200, rate: 28000, probeEvery: 32, setups: 5, ladderOps: 40000,
	},
	{
		name: "htap-range", rows: 200_000, shards: 4, byRange: false,
		mix: []workload.MixEntry{
			{Kind: workload.Q3RangeSum, Frac: 0.45, Access: workload.Uniform},
			{Kind: workload.Q2RangeCount, Frac: 0.15, Access: workload.Uniform},
			{Kind: workload.Q8Scan, Frac: 0.15, Access: workload.Uniform},
			{Kind: workload.Q1PointQuery, Frac: 0.05, Access: workload.Uniform},
			{Kind: workload.Q4Insert, Frac: 0.19, Access: workload.Uniform},
			{Kind: workload.Q6Update, Frac: 0.01, Access: workload.Uniform},
		},
		rangeRows: 200, rate: 17000, setups: 15, ladderOps: 15000,
	},
}

// presetMix is the mix of one of the paper's presets.
func presetMix(name string) []workload.MixEntry {
	s, err := workload.Preset(name, 0, 0)
	if err != nil {
		panic(err)
	}
	return s.Mix
}

func lookup(name string) (*spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *spec) domain() int64 { return int64(w.rows) * domainFactor }

// generate draws n ops of mix over the keys with internal/workload's
// generator. Ranges span rangeRows rows at load density.
func (w *spec) generate(keys []int64, mix []workload.MixEntry, n int, seed int64) ([]workload.Op, error) {
	return workload.Generate(keys, w.domain(), workload.Spec{
		Name:      w.name,
		Mix:       mix,
		RangeFrac: float64(w.rangeRows) / float64(w.rows),
		Ops:       n,
		Seed:      seed,
	})
}

// options is the engine configuration every facade rung of w uses.
func (w *spec) options(dir string) casper.Options {
	return casper.Options{
		Mode:         casper.ModeCasper,
		PayloadCols:  payloadCols,
		Shards:       w.shards,
		ShardByRange: w.byRange,
		Dir:          dir,
		Sync:         casper.SyncModeInterval,
	}
}

// input is a run's seeded data: the initial keys, the Train sample (drawn
// from seed+1) for the facade and for the rungs below it, and the oracle
// over the keys.
type input struct {
	keys    []int64
	sample  []casper.Op
	wsample []workload.Op
	orc     *oracle
}

func newInput(w *spec, seed int64) (*input, error) {
	keys := casper.UniformKeys(w.rows, w.domain(), seed)
	sample, err := w.generate(keys, w.mix, trainOps, seed+1)
	if err != nil {
		return nil, fmt.Errorf("training sample: %w", err)
	}
	return &input{keys: keys, sample: casperOps(sample), wsample: sample, orc: newOracle(keys, w.domain())}, nil
}

// stream turns internal/workload's generated ops into the benchmark's, in
// order: it issues a share of RangeSums as MultiRangeSum, follows every
// probeEvery mix ops with one probe read, and has the oracle fill in each
// op's expected answer.
type stream struct {
	mix, probes []workload.Op
	rng         *rand.Rand // picks the RangeSums issued as MultiRangeSum
	orc         *oracle
	probeEvery  int
	since       int
}

// newStream generates n ops of mix from seed and, when probeEvery > 0,
// their probes from seed+2 (the Train sample uses seed+1).
func newStream(w *spec, in *input, mix []workload.MixEntry, probeEvery, n int, seed int64) (*stream, error) {
	ops, err := w.generate(in.keys, mix, n, seed)
	if err != nil {
		return nil, fmt.Errorf("op stream: %w", err)
	}
	s := &stream{mix: ops, rng: rand.New(rand.NewSource(seed)), orc: in.orc, probeEvery: probeEvery}
	if probeEvery > 0 {
		if s.probes, err = w.generate(in.keys, probeMix, n/probeEvery, seed+2); err != nil {
			return nil, fmt.Errorf("probe stream: %w", err)
		}
	}
	return s, nil
}

// fill appends up to n mix ops, with their probes, and returns fewer once
// the stream runs out.
func (s *stream) fill(ops []op, n int) []op {
	for ; n > 0 && len(s.mix) > 0; n-- {
		ops = append(ops, s.next(s.mix[0]))
		s.mix = s.mix[1:]
		if s.since++; s.since == s.probeEvery {
			s.since = 0
			ops = append(ops, s.next(s.probes[0]))
			ops[len(ops)-1].probe = true
			s.probes = s.probes[1:]
		}
	}
	return ops
}

func (s *stream) next(g workload.Op) op {
	o := op{key: g.Key, key2: g.Key2, limit: int32(g.Limit)}
	switch g.Kind {
	case workload.Q1PointQuery:
		o.kind = opPoint
	case workload.Q2RangeCount:
		o.kind = opCount
	case workload.Q3RangeSum:
		o.kind = opSum
		if s.rng.Float64() < multiShare {
			o.kind = opMulti
		}
	case workload.Q8Scan:
		o.kind = opScan
	case workload.Q4Insert:
		o.kind = opInsert
	case workload.Q5Delete:
		o.kind = opDelete
	case workload.Q6Update:
		o.kind = opUpdate
	default:
		panic(fmt.Sprintf("perfbench: unexpected op kind %v", g.Kind))
	}
	s.orc.apply(&o)
	return o
}

// casperOps converts the Train sample for the facade.
func casperOps(ops []workload.Op) []casper.Op {
	kinds := map[workload.Kind]casper.OpKind{
		workload.Q1PointQuery: casper.PointQuery,
		workload.Q2RangeCount: casper.RangeCount,
		workload.Q3RangeSum:   casper.RangeSum,
		workload.Q4Insert:     casper.Insert,
		workload.Q5Delete:     casper.Delete,
		workload.Q6Update:     casper.Update,
		workload.Q8Scan:       casper.Scan,
	}
	out := make([]casper.Op, len(ops))
	for i, o := range ops {
		out[i] = casper.Op{Kind: kinds[o.Kind], Key: o.Key, Key2: o.Key2, Limit: o.Limit}
	}
	return out
}

// multiFilters is the TPC-H-Q6-shaped predicate of a MultiRangeSum over
// [lo, hi]: two payload-column filters that keep the middle half of the
// range, summing payload column multiSumCol. It is derived from the op so
// the stream needs no extra fields.
func multiFilters(f []casper.Filter, lo, hi int64) []casper.Filter {
	q := (hi - lo) / 4
	return append(f[:0],
		casper.Filter{Col: 0, Lo: int32(lo + q), Hi: int32(hi)},
		casper.Filter{Col: 1, Lo: int32(lo), Hi: int32(hi - q + 1)})
}

const multiSumCol = 2

// payload is the engine's default payload generator (table.DefaultPayload),
// which the oracle mirrors. The benchmark leaves Options.PayloadGen unset:
// the table's Insert always uses the default.
func payload(key int64, col int) int32 { return int32(key) + int32(col) }
