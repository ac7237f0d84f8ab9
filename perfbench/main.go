// Command perfbench is the repository's benchmark. One run replays one
// seeded workload against the engine and prints its metrics as the last
// line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// With --trace 0 it drives the public casper API and reports the
// end-to-end metrics; with --trace 1 it replays the workload on every rung
// of the stack and reports the per-layer metrics. See README.md. It exits
// non-zero, with no result line, when it cannot run, and non-zero after
// the result line when an answer was wrong or an operation failed.
//
// Run it through run.py, which builds it from source first:
//
//	python3 perfbench/run.py --workload htap-range --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() { os.Exit(run(os.Args[1:])) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: hybrid-point or htap-range")
	seed := fs.Int64("seed", 1, "seed of the keys and op stream (the Train sample uses seed+1)")
	seconds := fs.Float64("seconds", 30, "measured time of the run, as the workload's op count at its nominal rate")
	trace := fs.Int("trace", 0, "1 replays the workload on every rung and reports per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for the traced run's data dir and trace files")
	rev := fs.String("rev", "unknown", "source revision recorded in the run metadata")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookup(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	meta := map[string]any{
		"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"rows": w.rows, "rev": *rev, "go": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s\n", metaLine(meta))

	var rep *report
	defs := endToEnd
	if *trace == 1 {
		var rec *recorder
		rep, rec, err = runLadder(w, *seed, *seconds, *out, os.Stderr)
		defs = perLayer()
		if err == nil {
			dir := filepath.Join(*out, "trace")
			prefix := filepath.Join(dir, fmt.Sprintf("%s-seed%d", w.name, *seed))
			if err = os.MkdirAll(dir, 0o755); err == nil {
				err = rec.write(prefix, meta)
			}
		}
	} else {
		rep, err = runE2E(w, *seed, *seconds, os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res := result{
		Correct:   rep.wrong == 0 && rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.wrong + rep.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.Name)
			return 1
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
		fmt.Fprintf(os.Stderr, "  %-28s %16.6g %s\n", d.Name, v, d.Unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, "perfbench: error:", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func metaLine(meta map[string]any) string {
	keys := []string{"workload", "seed", "seconds", "trace", "rows", "rev", "go", "gomaxprocs", "nproc"}
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%v", k, meta[k])
	}
	return strings.Join(parts, " ")
}
