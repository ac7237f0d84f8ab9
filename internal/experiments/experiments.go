// Package experiments regenerates every table and figure of the paper's
// evaluation (§7 plus the model figures of §2/§4). Each Fig* function
// returns a Report with the same rows/series the paper presents; the
// casperbench command prints them and the repository-level benchmarks wrap
// them in testing.B harnesses.
//
// Absolute numbers differ from the paper (Go on this machine vs C++ on a
// 64-thread EC2 box); the reproduced artifact is the *shape*: who wins,
// by roughly what factor, and where the crossovers fall. EXPERIMENTS.md
// records paper-vs-measured per figure.
package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"casper"
	"casper/internal/workload"
)

// Scale sizes the experiments. The paper's full scale (100M rows, 1M-value
// chunks) is reachable by raising these; the default keeps every figure
// under a few seconds on a laptop-class machine.
type Scale struct {
	Rows        int   // initial table rows (paper: 100M)
	Ops         int   // measured operations per run (paper: 10k)
	TrainOps    int   // sample size for layout training
	ChunkValues int   // column chunk size (paper: 1M)
	BlockBytes  int   // logical block size (paper: 16KB)
	Partitions  int   // per-chunk partition budget
	DomainMax   int64 // key domain upper bound
	Workers     int   // execution parallelism
	PayloadCols int   // payload columns (paper's narrow table: 16 incl. key)
	GhostFrac   float64
	Seed        int64
}

// DefaultScale returns the laptop-scale configuration.
func DefaultScale() Scale {
	return Scale{
		Rows:        1_000_000,
		Ops:         4_000,
		TrainOps:    6_000,
		ChunkValues: 262_144,
		BlockBytes:  16 * 1024,
		Partitions:  16,
		DomainMax:   10_000_000,
		Workers:     1,
		PayloadCols: 7,
		GhostFrac:   0.001,
		Seed:        42,
	}
}

// SmallScale returns a configuration small enough for unit tests.
func SmallScale() Scale {
	s := DefaultScale()
	s.Rows = 20_000
	s.Ops = 800
	s.TrainOps = 800
	s.ChunkValues = 8_192
	s.BlockBytes = 2_048 // 256 values per block
	s.DomainMax = 200_000
	return s
}

// Report is one regenerated table or figure.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Data carries the numeric series for programmatic checks; keyed by
	// series name, one value per row.
	Data map[string][]float64
}

// String renders the report as an aligned text table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// addData appends one numeric point to a named series.
func (r *Report) addData(series string, v float64) {
	if r.Data == nil {
		r.Data = make(map[string][]float64)
	}
	r.Data[series] = append(r.Data[series], v)
}

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

// KindStats aggregates latency per operation kind.
type KindStats struct {
	Count   int
	TotalNs int64
	MaxNs   int64
}

// MeanUs returns the mean latency in microseconds.
func (k KindStats) MeanUs() float64 {
	if k.Count == 0 {
		return 0
	}
	return float64(k.TotalNs) / float64(k.Count) / 1e3
}

// Measurement is the outcome of executing a workload on one engine.
type Measurement struct {
	PerKind map[casper.OpKind]*KindStats
	WallNs  int64
	Ops     int
}

// Throughput returns operations per second.
func (m Measurement) Throughput() float64 {
	if m.WallNs == 0 {
		return 0
	}
	return float64(m.Ops) / (float64(m.WallNs) / 1e9)
}

// Mean returns the mean latency (µs) of one kind.
func (m Measurement) Mean(k casper.OpKind) float64 {
	if s, ok := m.PerKind[k]; ok {
		return s.MeanUs()
	}
	return 0
}

// runMeasured executes ops serially, timing each operation.
func runMeasured(e *casper.Engine, ops []casper.Op) Measurement {
	m := Measurement{PerKind: make(map[casper.OpKind]*KindStats), Ops: len(ops)}
	start := time.Now()
	for _, op := range ops {
		t0 := time.Now()
		e.Execute(op)
		d := time.Since(t0).Nanoseconds()
		s := m.PerKind[op.Kind]
		if s == nil {
			s = &KindStats{}
			m.PerKind[op.Kind] = s
		}
		s.Count++
		s.TotalNs += d
		if d > s.MaxNs {
			s.MaxNs = d
		}
	}
	m.WallNs = time.Since(start).Nanoseconds()
	return m
}

// RunParallel splits ops by index into workers contiguous slices and runs
// each slice through Engine.Execute on its own goroutine, returning when all
// are done; shard and chunk locks serialize conflicting writes.
func RunParallel(e *casper.Engine, ops []casper.Op, workers int) {
	workers = max(workers, 1)
	per := (len(ops) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		part := ops[min(w*per, len(ops)):min((w+1)*per, len(ops))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, op := range part {
				e.Execute(op) // a generated delete may miss a key already gone
			}
		}()
	}
	wg.Wait()
}

// buildEngine opens an engine at the given scale and mode, training Casper
// mode on the training prefix of the workload.
func buildEngine(sc Scale, mode casper.Mode, preset string, keys []int64) (*casper.Engine, []casper.Op, error) {
	e, err := casper.Open(keys, casper.Options{
		Mode:        mode,
		PayloadCols: sc.PayloadCols,
		ChunkValues: sc.ChunkValues,
		BlockBytes:  sc.BlockBytes,
		GhostFrac:   sc.GhostFrac,
		Partitions:  sc.Partitions,
	})
	if err != nil {
		return nil, nil, err
	}
	train, err := casper.PresetWorkload(preset, keys, sc.DomainMax, sc.TrainOps, sc.Seed)
	if err != nil {
		return nil, nil, err
	}
	if mode == casper.ModeCasper {
		if err := e.Train(train, sc.Workers); err != nil {
			return nil, nil, err
		}
	}
	// Steady-state warmup: run one unmeasured stream so every layout is
	// measured in its sustained regime (delta buffers partially full and
	// merging, ghost slots partially consumed) rather than from a cold,
	// freshly-organized state.
	warm, err := casper.PresetWorkload(preset, keys, sc.DomainMax, sc.Ops, sc.Seed+2)
	if err != nil {
		return nil, nil, err
	}
	for _, op := range warm {
		e.Execute(op) // a generated delete may miss; the warmup only ages the layout
	}
	run, err := casper.PresetWorkload(preset, keys, sc.DomainMax, sc.Ops, sc.Seed+1)
	if err != nil {
		return nil, nil, err
	}
	return e, run, nil
}

func fmtF(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }

// modeLabel matches the paper's legend names.
func modeLabel(m casper.Mode) string {
	switch m {
	case casper.ModeCasper:
		return "Casper"
	case casper.ModeEquiGV:
		return "Equi-GV"
	case casper.ModeEqui:
		return "Equi"
	case casper.ModeStateOfArt:
		return "State-of-art"
	case casper.ModeSorted:
		return "Sorted"
	case casper.ModeNoOrder:
		return "No Order"
	}
	return m.String()
}

// workloadLabel matches Fig. 12's x-axis labels.
func workloadLabel(preset string) string {
	switch preset {
	case workload.HybridSkewed:
		return "hybrid, skewed"
	case workload.HybridRangeSkewed:
		return "hybrid, range, skewed"
	case workload.ReadOnlySkewed:
		return "read-only, skewed"
	case workload.ReadOnlyUniform:
		return "read-only, uniform"
	case workload.UpdateOnlySkewed:
		return "update-only, skewed"
	case workload.UpdateOnlyUniform:
		return "update-only, uniform"
	}
	return preset
}
