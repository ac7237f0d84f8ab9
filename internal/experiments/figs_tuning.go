package experiments

import (
	"fmt"

	"casper"
	"casper/internal/iomodel"
	"casper/internal/workload"
)

// Fig14 regenerates the ghost-value sweep of Fig. 14: insert latency as the
// ghost budget grows from 0.01% to 10% of the data size, for the two
// update-intensive workloads and the hybrid YCSB-A-like mix.
func Fig14(sc Scale) Report {
	r := Report{
		ID:     "fig14",
		Title:  "Insert latency vs ghost value budget",
		Header: []string{"workload", "ghosts", "insert(us)", "ghost hits"},
	}
	keys := casper.UniformKeys(sc.Rows, sc.DomainMax, sc.Seed)
	for _, preset := range []string{workload.UDI1, workload.UDI2, workload.YCSBA2} {
		for _, frac := range []float64{0.0001, 0.001, 0.01, 0.10} {
			e, err := casper.Open(keys, casper.Options{
				Mode:          casper.ModeCasper,
				PayloadCols:   sc.PayloadCols,
				ChunkValues:   sc.ChunkValues,
				BlockBytes:    sc.BlockBytes,
				GhostFrac:     frac,
				Partitions:    sc.Partitions,
				MinPartitions: sc.Partitions / 2, // hold structure fixed across budgets
			})
			if err != nil {
				panic(err)
			}
			train, err := casper.PresetWorkload(preset, keys, sc.DomainMax, sc.TrainOps, sc.Seed)
			if err != nil {
				panic(err)
			}
			if err := e.Train(train, sc.Workers); err != nil {
				panic(err)
			}
			warm, err := casper.PresetWorkload(preset, keys, sc.DomainMax, sc.Ops, sc.Seed+2)
			if err != nil {
				panic(err)
			}
			for _, op := range warm {
				e.Execute(op) // a generated delete may miss; the warmup only ages the layout
			}
			run, err := casper.PresetWorkload(preset, keys, sc.DomainMax, sc.Ops, sc.Seed+1)
			if err != nil {
				panic(err)
			}
			m := runMeasured(e, run)
			label := preset
			switch preset {
			case workload.UDI1:
				label = "UDI1 (update-only, skewed)"
			case workload.UDI2:
				label = "UDI2 (update-only, uniform)"
			case workload.YCSBA2:
				label = "YCSB-A2 (hybrid, skewed)"
			}
			r.Rows = append(r.Rows, []string{
				label, fmt.Sprintf("%.2f%%", frac*100),
				fmtF(m.Mean(casper.Insert), 2),
				fmt.Sprint(totalGhostSlots(e)),
			})
			r.addData(preset, m.Mean(casper.Insert))
			r.addData(preset+"/hits", float64(totalGhostSlots(e)))
		}
	}
	r.Notes = append(r.Notes,
		"paper: 1% ghost values roughly halve insert latency (Fig. 14, 4 threads, 1M chunks)")
	return r
}

func totalGhostSlots(e *casper.Engine) int {
	n := 0
	for _, l := range e.Layouts() {
		for _, g := range l.Ghosts {
			n += g
		}
	}
	return n
}

// Fig15 regenerates the SLA experiment of Fig. 15: as the insert SLA
// tightens, the optimizer uses fewer partitions, insert latency falls
// proportionally, update cost rises (its point-query half scans bigger
// partitions), and overall throughput degrades only marginally.
func Fig15(sc Scale) Report {
	r := Report{
		ID:     "fig15",
		Title:  "Meeting an insert latency SLA",
		Header: []string{"insertSLA", "maxParts", "Q1(us)", "Q4(us)", "Q6(us)", "Kops/s"},
	}
	keys := casper.UniformKeys(sc.Rows, sc.DomainMax, sc.Seed)
	p := iomodel.DefaultParams()
	step := p.RR + p.RW // one ripple step in model-ns

	type slaCase struct {
		label string
		ns    float64
	}
	cases := []slaCase{{"none", 0}}
	for _, k := range []int{32, 16, 8, 4, 2} {
		cases = append(cases, slaCase{
			fmt.Sprintf("%.1fus", step*float64(1+k)/1e3),
			step * float64(1+k),
		})
	}
	for _, c := range cases {
		opts := casper.Options{
			Mode:        casper.ModeCasper,
			PayloadCols: sc.PayloadCols,
			ChunkValues: sc.ChunkValues,
			BlockBytes:  sc.BlockBytes,
			GhostFrac:   sc.GhostFrac,
			Partitions:  sc.Partitions,
			UpdateSLA:   c.ns,
		}
		e, err := casper.Open(keys, opts)
		if err != nil {
			panic(err)
		}
		train, err := casper.PresetWorkload(workload.SLAHybrid, keys, sc.DomainMax, sc.TrainOps, sc.Seed)
		if err != nil {
			panic(err)
		}
		if err := e.Train(train, sc.Workers); err != nil {
			panic(err)
		}
		run, err := casper.PresetWorkload(workload.SLAHybrid, keys, sc.DomainMax, sc.Ops, sc.Seed+1)
		if err != nil {
			panic(err)
		}
		m := runMeasured(e, run)
		maxParts := 0
		for _, l := range e.Layouts() {
			if l.Partitions > maxParts {
				maxParts = l.Partitions
			}
		}
		r.Rows = append(r.Rows, []string{
			c.label, fmt.Sprint(maxParts),
			fmtF(m.Mean(casper.PointQuery), 1),
			fmtF(m.Mean(casper.Insert), 2),
			fmtF(m.Mean(casper.Update), 1),
			fmtF(m.Throughput()/1e3, 2),
		})
		r.addData("parts", float64(maxParts))
		r.addData("insert", m.Mean(casper.Insert))
		r.addData("tput", m.Throughput())
	}
	r.Notes = append(r.Notes,
		"paper: insert cost tracks the SLA; throughput hit < 3%; update cost rises at tight SLAs (Fig. 15)")
	return r
}

// Fig16 regenerates the robustness experiment of Fig. 16: a layout trained
// for one workload (point queries on the late domain, inserts on the early
// domain) is evaluated under mass shift between the two operation classes
// and rotational shift of the targeted domain. The paper observes a robust
// plateau (≤15% mass / ≤10% rotation) followed by a cliff of up to ~60%.
func Fig16(sc Scale) Report {
	r := Report{
		ID:     "fig16",
		Title:  "Robustness to workload uncertainty",
		Header: []string{"mass shift", "rotational shift", "norm latency"},
	}
	keys := casper.UniformKeys(sc.Rows, sc.DomainMax, sc.Seed)
	train, err := casper.PresetWorkload(workload.Robust5050, keys, sc.DomainMax, sc.TrainOps, sc.Seed)
	if err != nil {
		panic(err)
	}

	run := func(massShift, rotShift float64) float64 {
		e, err := casper.Open(keys, casper.Options{
			Mode:        casper.ModeCasper,
			PayloadCols: sc.PayloadCols,
			ChunkValues: sc.ChunkValues,
			BlockBytes:  sc.BlockBytes,
			GhostFrac:   0.01,
			Partitions:  sc.Partitions,
		})
		if err != nil {
			panic(err)
		}
		if err := e.Train(train, sc.Workers); err != nil {
			panic(err)
		}
		// Mass shift: move a fraction of point-query mass to inserts
		// (positive) or vice versa (negative).
		pqFrac := 0.5 * (1 - massShift)
		spec := workload.Spec{
			Name: "robust-eval",
			Mix: []workload.MixEntry{
				{Kind: workload.Q1PointQuery, Frac: pqFrac, Access: workload.RampRecent},
				{Kind: workload.Q4Insert, Frac: 1 - pqFrac, Access: workload.RampEarly},
			},
			Ops:  sc.Ops,
			Seed: sc.Seed + 2,
		}
		ops, err := workload.Generate(keys, sc.DomainMax, spec)
		if err != nil {
			panic(err)
		}
		if rotShift > 0 {
			ops = casper.ShiftWorkload(ops, sc.DomainMax, rotShift)
		}
		m := runMeasured(e, ops)
		return float64(m.WallNs) / float64(m.Ops) // mean ns/op
	}

	base := run(0, 0)
	for _, mass := range []float64{-0.25, -0.15, 0, 0.15, 0.25} {
		for _, rot := range []float64{0, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50} {
			norm := run(mass, rot) / base
			r.Rows = append(r.Rows, []string{
				fmt.Sprintf("%+.0f%%", mass*100),
				fmt.Sprintf("%.0f%%", rot*100),
				fmtF(norm, 2),
			})
			r.addData(fmt.Sprintf("mass%+.0f", mass*100), norm)
		}
	}
	r.Notes = append(r.Notes,
		"paper: robust within ±15% mass / 10% rotation, up to ~60% penalty beyond (Fig. 16b)")
	return r
}

// All runs every experiment at the given scale in paper order, followed by
// this repository's extension reports (ablations, compression synergy).
func All(sc Scale) []Report {
	return []Report{
		Table1(),
		Fig1(sc),
		Fig2(sc),
		Fig9(sc),
		Fig11(sc),
		Fig12(sc),
		Fig13(sc),
		Fig14(sc),
		Fig15(sc),
		Fig16(sc),
		Ablations(sc),
		ExtCompression(sc),
		ExtGranularity(sc),
	}
}
