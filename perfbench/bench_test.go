package main

import (
	"encoding/json"
	"hash/fnv"
	"io"
	"os"
	"regexp"
	"testing"
	"time"

	"casper"
)

// tiny returns a copy of w with row and op counts cut to the minimum the
// tests run.
func tiny(w *spec) *spec {
	c := *w
	c.rows = 1000
	c.rate = 10000
	c.setups = 2
	c.ladderOps = 500
	return &c
}

// fingerprint hashes the first n ops of w's stream at seed, probes and
// expected answers included.
func fingerprint(t *testing.T, w *spec, seed int64, n int) uint64 {
	t.Helper()
	in, err := newInput(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	st, err := newStream(w, in, w.mix, w.probeEvery, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	ops := st.fill(nil, n)
	h := fnv.New64a()
	for _, o := range ops {
		var b [43]byte
		put := func(at int, v uint64) {
			for i := 0; i < 8; i++ {
				b[at+i] = byte(v >> (8 * i))
			}
		}
		put(0, uint64(o.key))
		put(8, uint64(o.key2))
		put(16, uint64(o.want))
		put(24, o.hash)
		put(32, uint64(o.limit))
		b[40] = byte(o.kind)
		if o.check {
			b[41] = 1
		}
		if o.probe {
			b[42] = 1
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestStreamFingerprint pins each workload's op stream per seed. A change
// to the generator, the oracle or a workload's parameters changes these
// values: the new values then belong to a new benchmark definition, and
// results across the change are not comparable.
func TestStreamFingerprint(t *testing.T) {
	want := map[string][2]uint64{
		"hybrid-point": {0xed7cca08e634cc57, 0x8245e117d434825f},
		"htap-range":   {0x7e5bd269f0c7a096, 0x851f87adcbe3cbfe},
	}
	for _, w := range workloads {
		w := tiny(w)
		for i, seed := range []int64{1, 2} {
			got := fingerprint(t, w, seed, 5000)
			if again := fingerprint(t, w, seed, 5000); again != got {
				t.Fatalf("%s seed %d: stream is not deterministic (%#x, then %#x)", w.name, seed, got, again)
			}
			if got != want[w.name][i] {
				t.Errorf("%s seed %d: fingerprint %#x, want %#x", w.name, seed, got, want[w.name][i])
			}
		}
		if fingerprint(t, w, 1, 5000) == fingerprint(t, w, 2, 5000) {
			t.Errorf("%s: seeds 1 and 2 give the same stream", w.name)
		}
	}
}

type benchmarkFile struct {
	Command    []string                     `json:"command"`
	Paths      []string                     `json:"paths"`
	RunSeconds int                          `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []metricDef                  `json:"end_to_end"`
	PerLayer   []metricDef                  `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFile checks BENCHMARK.json against the metrics and
// workloads this program reports, and against the limits of its format.
func TestBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(keys))
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of [1, 60]", f.RunSeconds)
	}
	if len(f.Workloads) < 2 || len(f.Workloads) > 8 {
		t.Errorf("%d workloads registered, want 2 to 8", len(f.Workloads))
	}
	for _, w := range f.Workloads {
		if _, err := lookup(w.Name); err != nil {
			t.Error(err)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(f.EndToEnd) < 1 || len(f.EndToEnd) > 16 || len(f.PerLayer) < 1 || len(f.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(f.EndToEnd), len(f.PerLayer))
	}
	seen := map[string]bool{}
	for _, w := range f.Workloads {
		seen[w.Name] = true
	}
	check := func(kind string, got, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics registered, %d reported", kind, len(got), len(want))
		}
		for i, m := range got {
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s: bad or repeated name %q", kind, m.Name)
			}
			seen[m.Name] = true
			if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s %s: unit %q, better %q", kind, m.Name, m.Unit, m.Better)
			}
			if bounded != (m.Bound > 0) || m.Bound > 0.25 {
				t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
			}
			if i < len(want) && m != want[i] {
				t.Errorf("%s %d: registered %+v, reported %+v", kind, i, m, want[i])
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer(), false)
	var setup *metricDef
	for i := range f.EndToEnd {
		if f.EndToEnd[i].Name == "setup_s" {
			setup = &f.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s missing or malformed: %+v", setup)
	} else {
		for _, m := range f.EndToEnd {
			if m.Bound > setup.Bound {
				t.Errorf("%s has a larger bound than setup_s", m.Name)
			}
		}
	}
}

// corrupt wraps a target and falsifies one answer: the countAt-th range
// count, the multiAt-th MultiRangeSum, or a key of the scanAt-th scan
// (1-based; 0 = none).
type corrupt struct {
	target
	countAt, multiAt, scanAt int
	counts, multis, scans    int
}

func (c *corrupt) multi(lo, hi int64, f []casper.Filter) int64 {
	c.multis++
	v := c.target.multi(lo, hi, f)
	if c.multis == c.multiAt {
		v++
	}
	return v
}

func (c *corrupt) count(lo, hi int64) int64 {
	c.counts++
	v := c.target.count(lo, hi)
	if c.counts == c.countAt {
		v++
	}
	return v
}

func (c *corrupt) scanOpen(lo, hi int64, limit int) {
	c.scans++
	c.target.scanOpen(lo, hi, limit)
}

func (c *corrupt) scanNext() (int64, bool) {
	k, ok := c.target.scanNext()
	if ok && c.scans == c.scanAt {
		k++
	}
	return k, ok
}

// TestOracleRejectsWrongAnswer replays a stream on a correct engine, then
// on one whose count, MultiRangeSum or scan answer is falsified once, and
// expects exactly that one answer to be flagged.
func TestOracleRejectsWrongAnswer(t *testing.T) {
	w, err := lookup("htap-range")
	if err != nil {
		t.Fatal(err)
	}
	w = tiny(w)
	for _, tc := range []struct {
		name                     string
		countAt, multiAt, scanAt int
		wantWrong                int
	}{{"correct", 0, 0, 0, 0}, {"count", 3, 0, 0, 1}, {"multi", 0, 4, 0, 1}, {"scan", 0, 0, 2, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			in, err := newInput(w, 7)
			if err != nil {
				t.Fatal(err)
			}
			st, err := newStream(w, in, w.mix, w.probeEvery, 3000, 7)
			if err != nil {
				t.Fatal(err)
			}
			ops := st.fill(nil, 3000)
			eng, err := openTrained(w, in, "")
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			tgt := &corrupt{target: &engineTarget{e: eng}, countAt: tc.countAt, multiAt: tc.multiAt, scanAt: tc.scanAt}
			c := newClient(tgt, time.Now(), nil, "casper")
			for i := range ops {
				c.do(&ops[i], modeTimed, i)
			}
			if c.wrong != tc.wantWrong || c.failed != 0 {
				t.Fatalf("wrong %d, failed %d, want %d and 0: %v", c.wrong, c.failed, tc.wantWrong, c.notes)
			}
		})
	}
}

// TestSmoke runs every workload untraced and traced at a tiny scale and
// checks that each reports every registered metric with no wrong answer.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			out := t.TempDir()
			rep, err := runE2E(w, 3, 0.3, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, endToEnd)
			// Duplicate keys leave few MultiRangeSum answers ambiguous.
			if rep.multis == 0 || float64(rep.multiChecked) < 0.95*float64(rep.multis) {
				t.Errorf("%d of %d MultiRangeSum answers checked, want at least 95%%", rep.multiChecked, rep.multis)
			}
			rep, rec, err := runLadder(w, 3, 0.3, out, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, perLayer())
			if err := rec.write(out+"/trace", map[string]any{"workload": w.name}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func checkReport(t *testing.T, rep *report, defs []metricDef) {
	t.Helper()
	if rep.wrong != 0 || rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("attempted %d, wrong %d, failed %d: %v", rep.attempted, rep.wrong, rep.failed, rep.notes)
	}
	for _, d := range defs {
		if _, ok := rep.metrics[d.Name]; !ok {
			t.Errorf("metric %s not reported", d.Name)
		}
	}
}

// TestSelfTimes checks that a span's self time excludes its children.
func TestSelfTimes(t *testing.T) {
	r := newRecorder()
	op := r.begin(r.intern("bench.op.scan"), 0, 0)
	r.add(r.intern("casper.Scan"), 10, 30, op, 0)
	r.add(r.intern("casper.Cursor.Next"), 30, 80, op, 0)
	r.end(op, 100)
	if got := r.selfTimes(); got[0] != 30 || got[1] != 20 || got[2] != 50 {
		t.Fatalf("self times %v, want [30 20 50]", got)
	}
}

// TestPayloadMatchesEngine guards the oracle's MultiRangeSum model: the
// engine's payload for a loaded key must be what payload computes.
func TestPayloadMatchesEngine(t *testing.T) {
	keys := []int64{5, 17, 99}
	eng, err := casper.Open(keys, casper.Options{Mode: casper.ModeCasper, PayloadCols: payloadCols})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.Insert(42)
	for _, k := range append(keys, 42) {
		for col := 0; col < payloadCols; col++ {
			if got, ok := eng.Payload(k, col); !ok || got != payload(k, col) {
				t.Fatalf("payload(%d, %d) = %d, %v; oracle says %d", k, col, got, ok, payload(k, col))
			}
		}
	}
}
