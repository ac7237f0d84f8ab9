package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"casper"
)

// chunkOps is the closed loop's unit: ops get their expected answers
// between chunks, off the clock.
const chunkOps = 2048

// report is what a run measured.
type report struct {
	metrics                  map[string]float64
	attempted, failed, wrong int
	notes                    []string
	// multis counts MultiRangeSum ops, multiChecked those whose answer was
	// checked.
	multis, multiChecked int
}

func (r *report) absorb(c *client) {
	r.attempted += c.attempted
	r.failed += c.failed
	r.wrong += c.wrong
	r.notes = append(r.notes, c.notes...)
	r.multis += c.multis
	r.multiChecked += c.multiChecked
}

// check counts a failed whole-state verification as a wrong answer.
func (r *report) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.wrong++
		r.notes = append(r.notes, what+": "+err.Error())
	}
}

// fail counts an error from a maintenance or lifecycle call.
func (r *report) fail(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.notes = append(r.notes, what+": "+err.Error())
	}
}

// openTrained is the timed set-up: Open with the keys, then Train.
func openTrained(w *spec, in *input, dir string) (*casper.Engine, error) {
	eng, err := casper.Open(in.keys, w.options(dir))
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	if err := eng.Train(in.sample, runtime.GOMAXPROCS(0)); err != nil {
		eng.Close()
		return nil, fmt.Errorf("train: %w", err)
	}
	return eng, nil
}

// runE2E is the untraced run: set up, replay the workload's rate*seconds
// mix ops through the public engine, and verify the final state.
func runE2E(w *spec, seed int64, seconds float64, log io.Writer) (*report, error) {
	in, err := newInput(w, seed)
	if err != nil {
		return nil, err
	}
	st, err := newStream(w, in, w.mix, w.probeEvery, int(float64(w.rate)*seconds), seed)
	if err != nil {
		return nil, err
	}
	rep := &report{metrics: map[string]float64{}}
	eng, err := setUp(w, in, rep)
	if err != nil {
		return nil, err
	}
	cl := newClient(&engineTarget{e: eng}, time.Now(), nil, "casper")
	rep.metrics["ops_per_s"] = closedLoop(st, cl)

	for c := class(0); c < nClass; c++ {
		rep.metrics[classNames[c]+"_p50_us"] = quantile(cl.lat[c], 0.50) / 1e3
		rep.metrics[classNames[c]+"_p95_us"] = quantile(cl.lat[c], 0.95) / 1e3
		fmt.Fprintf(log, "%-5s %7d samples, whole-run p99 %.1f us, max %.1f us\n", classNames[c], len(cl.lat[c]),
			quantile(cl.lat[c], 0.99)/1e3, quantile(cl.lat[c], 1)/1e3)
	}
	rep.absorb(cl)
	fmt.Fprintf(log, "multi %7d of %d answers checked\n", rep.multiChecked, rep.multis)
	rep.check("leader state", verifyAll(cl.tgt, in.orc, w.domain()))
	rep.fail("close", eng.Close())
	return rep, nil
}

// setUp opens and trains the in-memory engine w.setups times, keeps the
// last, and records setup_s and heap_bytes_per_row as medians over the
// set-ups.
func setUp(w *spec, in *input, rep *report) (*casper.Engine, error) {
	var setupS, heap []float64
	for i := 0; ; i++ {
		h0 := liveHeap()
		t := time.Now()
		eng, err := openTrained(w, in, "")
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t).Seconds())
		heap = append(heap, float64(liveHeap()-h0)/float64(w.rows))
		if i == w.setups-1 {
			rep.metrics["setup_s"] = median(setupS)
			rep.metrics["heap_bytes_per_row"] = median(heap)
			return eng, nil
		}
		rep.fail("close", eng.Close())
	}
}

// closedLoop replays the stream as one client issuing each op when the
// last returns. It returns ops_per_s: mix ops over the time the client
// spent in them, so probes do not count.
func closedLoop(st *stream, cl *client) float64 {
	var ops, ns int64
	batch := make([]op, 0, 2*chunkOps)
	for n := 0; ; n += len(batch) {
		if batch = st.fill(batch[:0], chunkOps); len(batch) == 0 {
			return float64(ops) / (float64(ns) / 1e9)
		}
		for i := range batch {
			begin := cl.now()
			end := cl.do(&batch[i], modeTimed, n+i)
			if !batch[i].probe {
				ops++
				ns += end - begin
			}
		}
	}
}
