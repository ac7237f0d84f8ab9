package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"casper"
	"casper/internal/workload"
)

// Fig1 regenerates the motivating experiment of Fig. 1: a TPC-H-shaped
// hybrid workload (point queries, a Q6-style multi-column range query, and
// inserts) executed on a vanilla column-store, a state-of-the-art delta
// design, and Casper's workload-tailored layout. The paper's headline: the
// delta design roughly doubles the vanilla throughput, and Casper
// multiplies it again.
func Fig1(sc Scale) Report {
	r := Report{
		ID:     "fig1",
		Title:  "Vanilla vs delta-store vs Casper on a TPC-H-shaped hybrid workload",
		Header: []string{"layout", "point(us)", "rangeQ6(us)", "insert(us)", "ops/s", "norm"},
	}
	keys := casper.UniformKeys(sc.Rows, sc.DomainMax, sc.Seed)
	rng := rand.New(rand.NewSource(sc.Seed + 7))

	type q6 struct {
		lo, hi int64
	}
	nPQ := sc.Ops * 30 / 100
	nQ6 := sc.Ops * 10 / 100
	nIN := sc.Ops - nPQ - nQ6
	pqKeys := make([]int64, nPQ)
	for i := range pqKeys {
		pqKeys[i] = rng.Int63n(sc.DomainMax + 1)
	}
	q6s := make([]q6, nQ6)
	width := sc.DomainMax / 50 // ~2% selectivity, TPC-H Q6-like
	for i := range q6s {
		lo := rng.Int63n(sc.DomainMax - width)
		q6s[i] = q6{lo, lo + width}
	}
	inKeys := make([]int64, nIN)
	for i := range inKeys {
		inKeys[i] = rng.Int63n(sc.DomainMax + 1)
	}
	filters := []casper.Filter{{Col: 1, Lo: -1 << 30, Hi: 1 << 30}, {Col: 2, Lo: 0, Hi: 1 << 30}}

	// Training sample mirrors the run mix.
	var sample []casper.Op
	for i := 0; i < nPQ; i++ {
		sample = append(sample, casper.Op{Kind: casper.PointQuery, Key: pqKeys[i%len(pqKeys)]})
	}
	for _, q := range q6s {
		sample = append(sample, casper.Op{Kind: casper.RangeSum, Key: q.lo, Key2: q.hi})
	}
	for _, k := range inKeys {
		sample = append(sample, casper.Op{Kind: casper.Insert, Key: k})
	}

	var base float64
	for _, mode := range []casper.Mode{casper.ModeNoOrder, casper.ModeStateOfArt, casper.ModeCasper} {
		e, err := casper.Open(keys, casper.Options{
			Mode:        mode,
			PayloadCols: sc.PayloadCols,
			ChunkValues: sc.ChunkValues,
			BlockBytes:  sc.BlockBytes,
			GhostFrac:   0.01, // Fig. 1 uses a 1% buffer budget
			Partitions:  sc.Partitions,
		})
		if err != nil {
			panic(err)
		}
		if mode == casper.ModeCasper {
			if err := e.Train(sample, sc.Workers); err != nil {
				panic(err)
			}
		}
		// Steady-state warmup (see buildEngine).
		for _, k := range inKeys {
			e.Insert(k)
		}
		for _, k := range pqKeys[:len(pqKeys)/4] {
			e.PointQuery(k)
		}
		var pqNs, q6Ns, inNs int64
		wall := time.Now()
		t0 := time.Now()
		for _, k := range pqKeys {
			e.PointQuery(k)
		}
		pqNs = time.Since(t0).Nanoseconds()
		t0 = time.Now()
		for _, q := range q6s {
			e.MultiRangeSum(q.lo, q.hi, filters, 3)
		}
		q6Ns = time.Since(t0).Nanoseconds()
		t0 = time.Now()
		for _, k := range inKeys {
			e.Insert(k)
		}
		inNs = time.Since(t0).Nanoseconds()
		wallNs := time.Since(wall).Nanoseconds()

		tput := float64(sc.Ops) / (float64(wallNs) / 1e9)
		if mode == casper.ModeNoOrder {
			base = tput
		}
		r.Rows = append(r.Rows, []string{
			modeLabel(mode),
			fmtF(float64(pqNs)/float64(nPQ)/1e3, 1),
			fmtF(float64(q6Ns)/float64(nQ6)/1e3, 1),
			fmtF(float64(inNs)/float64(nIN)/1e3, 1),
			fmtF(tput, 0),
			fmtF(tput/base, 2),
		})
		r.addData("tput", tput)
		r.addData("norm", tput/base)
	}
	r.Notes = append(r.Notes,
		"paper: delta ≈1.9× vanilla, Casper ≈8× vanilla (Fig. 1, 32 cores, 100M rows)")
	return r
}

// Fig12 regenerates the headline comparison of Fig. 12: six layout modes ×
// six workloads, throughput normalized against the state-of-the-art delta
// design.
func Fig12(sc Scale) Report {
	r := Report{
		ID:     "fig12",
		Title:  "Normalized throughput of column layouts across workloads",
		Header: []string{"workload", "layout", "ops/s", "norm vs state-of-art"},
	}
	presets := []string{
		workload.HybridSkewed, workload.HybridRangeSkewed,
		workload.ReadOnlySkewed, workload.ReadOnlyUniform,
		workload.UpdateOnlySkewed, workload.UpdateOnlyUniform,
	}
	keys := casper.UniformKeys(sc.Rows, sc.DomainMax, sc.Seed)
	for _, preset := range presets {
		tputs := make(map[casper.Mode]float64)
		for _, mode := range casper.AllModes() {
			e, run, err := buildEngine(sc, mode, preset, keys)
			if err != nil {
				panic(fmt.Sprintf("%s/%v: %v", preset, mode, err))
			}
			t0 := time.Now()
			RunParallel(e, run, sc.Workers)
			tputs[mode] = float64(len(run)) / time.Since(t0).Seconds()
		}
		base := tputs[casper.ModeStateOfArt]
		for _, mode := range casper.AllModes() {
			norm := tputs[mode] / base
			r.Rows = append(r.Rows, []string{
				workloadLabel(preset), modeLabel(mode),
				fmtF(tputs[mode], 0), fmtF(norm, 2),
			})
			r.addData(workloadLabel(preset)+"/"+modeLabel(mode), norm)
		}
	}
	r.Notes = append(r.Notes,
		"paper: Casper 1.75–2.32× on hybrid and update-intensive mixes; state-of-art ~5% ahead on read-only skewed")
	return r
}

// Fig13 regenerates the per-operation drill-down of Fig. 13: mean latency
// per query class plus workload throughput for (a) the skewed hybrid mix,
// (b) the skewed read-only mix, and (c) the uniform update-only mix.
func Fig13(sc Scale) Report {
	r := Report{
		ID:     "fig13",
		Title:  "Per-operation latency and throughput",
		Header: []string{"workload", "layout", "Q1(us)", "Q2(us)", "Q4(us)", "Q5(us)", "Q6(us)", "Kops/s"},
	}
	keys := casper.UniformKeys(sc.Rows, sc.DomainMax, sc.Seed)
	for _, preset := range []string{
		workload.HybridSkewed, workload.ReadOnlySkewed, workload.UpdateOnlyUniform,
	} {
		for _, mode := range casper.AllModes() {
			e, run, err := buildEngine(sc, mode, preset, keys)
			if err != nil {
				panic(err)
			}
			m := runMeasured(e, run)
			r.Rows = append(r.Rows, []string{
				workloadLabel(preset), modeLabel(mode),
				fmtF(m.Mean(casper.PointQuery), 1),
				fmtF(m.Mean(casper.RangeCount), 1),
				fmtF(m.Mean(casper.Insert), 1),
				fmtF(m.Mean(casper.Delete), 1),
				fmtF(m.Mean(casper.Update), 1),
				fmtF(m.Throughput()/1e3, 2),
			})
			r.addData(workloadLabel(preset)+"/"+modeLabel(mode)+"/insert", m.Mean(casper.Insert))
			r.addData(workloadLabel(preset)+"/"+modeLabel(mode)+"/tput", m.Throughput())
		}
	}
	r.Notes = append(r.Notes,
		"paper: (a) Casper inserts orders of magnitude faster without hurting Q1;",
		"(b) Casper matches the delta design on reads; (c) ≥2× on update-only")
	return r
}
