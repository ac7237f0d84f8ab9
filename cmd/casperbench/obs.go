package main

// Observability commands: -http serves the live /metrics and /events
// endpoints over a continuously loaded engine, -validate-metrics checks a
// running endpoint round-trips (JSON decodes into casper.Snapshot, the
// Prometheus rendering carries the op counters, /events parses), and
// -obsbench measures the cost of metric collection itself — the same
// point-query loop with the registry disabled and enabled — and emits the
// delta as BENCH_obs.json together with a snapshot round-trip verification.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"casper"
	"casper/internal/obs/httpdebug"
)

// runHTTPServe loads a range-sharded engine, keeps a mixed workload running
// against it in the background, and serves the debug endpoints until killed:
//
//	GET /metrics                     JSON casper.Snapshot
//	GET /metrics?format=prometheus   Prometheus text exposition
//	GET /events?since=N              JSON []casper.Event
func runHTTPServe(addr string, rows int, seed int64) error {
	if rows <= 0 {
		rows = 200_000
	}
	const shards = 4
	domain := int64(rows) * 10
	keys := casper.UniformKeys(rows, domain, seed)
	eng, err := casper.Open(keys, casper.Options{Mode: casper.ModeCasper, Shards: shards, ShardByRange: true})
	if err != nil {
		return err
	}
	defer eng.Close()
	eng.EnableMetrics()

	// Background traffic so the endpoints have something to show: skewed
	// point reads, range aggregates, scans, and a trickle of writes; the
	// auto-rebalancer keeps lifecycle events flowing when the writes skew.
	if err := eng.StartAutoRebalance(casper.RebalancePolicy{CheckEvery: time.Second}); err != nil {
		return err
	}
	defer eng.StopAutoRebalance()
	go func() {
		i := int64(0)
		for {
			k := (i * 2654435761) % domain
			eng.PointQuery(k)
			eng.RangeCount(k, k+1_000)
			if i%16 == 0 {
				c := eng.Scan(k, k+10_000, casper.ScanOptions{Limit: 100})
				for c.Next() {
				}
				c.Close()
			}
			if i%4 == 0 {
				eng.Insert(domain + i)
			}
			if i%64 == 0 {
				_ = eng.Delete(domain + i/2)
				time.Sleep(time.Millisecond) // keep the load modest
			}
			i++
		}
	}()

	fmt.Printf("casperbench: serving /metrics and /events on %s (%d rows, %d shards)\n", addr, rows, shards)
	return http.ListenAndServe(addr, httpdebug.Handler(eng))
}

// runValidateMetrics fetches a live endpoint and verifies the three
// acceptance properties: the JSON body decodes into casper.Snapshot with
// non-zero op counts, the Prometheus rendering exposes the op counters, and
// /events returns a well-formed event list.
func runValidateMetrics(base string) error {
	client := &http.Client{Timeout: 10 * time.Second}

	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var snap casper.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("/metrics JSON does not decode into casper.Snapshot: %w", err)
	}
	if !snap.Enabled {
		return fmt.Errorf("/metrics reports collection disabled")
	}
	var total uint64
	for _, op := range snap.Ops {
		total += op.Count
	}
	if total == 0 {
		return fmt.Errorf("/metrics has zero op counts — no traffic recorded")
	}

	resp, err = client.Get(base + "/metrics?format=prometheus")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return err
	}
	if !strings.Contains(string(body), "casper_ops_total") {
		return fmt.Errorf("prometheus rendering missing casper_ops_total")
	}

	resp, err = client.Get(base + "/events?since=0")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var events []casper.Event
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		return fmt.Errorf("/events does not decode into []casper.Event: %w", err)
	}

	fmt.Printf("metrics endpoint ok: %d ops across %d kinds, epoch %d, %d events journaled\n",
		total, len(snap.Ops), snap.Epoch, len(events))
	return nil
}

// Artifact schema for -obsbench.
type obsRoundtrip struct {
	OpsMatch         bool   `json:"ops_match"`
	RebalancePauseNs uint64 `json:"rebalance_pause_samples"`
	WALFsyncSamples  uint64 `json:"wal_fsync_samples"`
	WALAppends       uint64 `json:"wal_appends"`
	Events           int    `json:"events"`
}

type obsArtifact struct {
	Benchmark         string       `json:"benchmark"`
	Rows              int          `json:"rows"`
	OpsPerTrial       int          `json:"ops_per_trial"`
	Trials            int          `json:"trials"`
	SampleEvery       int          `json:"latency_sample_every"`
	DisabledOpsPerSec float64      `json:"disabled_ops_per_sec"`
	EnabledOpsPerSec  float64      `json:"enabled_ops_per_sec"`
	OverheadPct       float64      `json:"overhead_pct"`
	Roundtrip         obsRoundtrip `json:"roundtrip"`
	GOMAXPROCS        int          `json:"gomaxprocs"`
	GOOS              string       `json:"goos"`
	GeneratedAt       string       `json:"generated_at"`
}

// runObsBench measures the overhead of metric collection: the identical
// point-query loop against one engine with the registry disabled and then
// enabled (median of trials each way), followed by a round-trip check — a
// rebalance and a durable WAL burst are driven, the Snapshot is marshaled
// through JSON, and the decoded copy must carry the op counts, a non-empty
// rebalance-pause histogram, and a non-empty WAL fsync histogram.
func runObsBench(rows, opsPerTrial int, seed int64, outPath string) error {
	if rows <= 0 {
		rows = 200_000
	}
	if opsPerTrial <= 0 {
		opsPerTrial = 400_000
	}
	const trials = 3
	domain := int64(rows) * 10
	keys := casper.UniformKeys(rows, domain, seed)
	eng, err := casper.Open(keys, casper.Options{Mode: casper.ModeCasper, Shards: 4, ShardByRange: true})
	if err != nil {
		return err
	}
	defer eng.Close()

	probe := casper.UniformKeys(opsPerTrial, domain, seed+1)
	trial := func() float64 {
		start := time.Now()
		sink := 0
		for _, k := range probe {
			sink += eng.PointQuery(k)
		}
		if sink < 0 {
			panic("unreachable")
		}
		return float64(opsPerTrial) / time.Since(start).Seconds()
	}
	median := func() float64 {
		xs := make([]float64, trials)
		for i := range xs {
			xs[i] = trial()
		}
		sort.Float64s(xs)
		return xs[trials/2]
	}

	trial() // warm both paths (page in tables, settle the scheduler)
	disabled := median()
	eng.EnableMetrics()
	enabled := median()
	overhead := (disabled - enabled) / disabled * 100

	// Round-trip: exercise the lifecycle paths the snapshot must carry. An
	// explicit boundary shift forces a real install even on uniform data,
	// where the proposers would short-circuit as already balanced.
	bounds := []int64{domain/4 + 1_000, domain/2 + 1_000, 3*domain/4 + 1_000}
	if _, err := eng.RebalanceTo(bounds); err != nil {
		return fmt.Errorf("obsbench rebalance: %w", err)
	}

	dir, err := os.MkdirTemp("", "casper-obsbench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	wkeys := casper.UniformKeys(4_096, domain, seed+2)
	deng, err := casper.Open(wkeys, casper.Options{
		Mode: casper.ModeCasper, Shards: 2, ShardByRange: true,
		Dir: dir, Sync: casper.SyncModeAlways,
	})
	if err != nil {
		return err
	}
	deng.EnableMetrics()
	for i := 0; i < 512; i++ {
		if err := deng.Insert(domain + int64(i)); err != nil {
			return err
		}
	}
	if err := deng.SyncWAL(); err != nil {
		return err
	}
	dsnap := deng.Metrics()
	deng.Close()

	snap := eng.Metrics()
	blob, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	var decoded casper.Snapshot
	if err := json.Unmarshal(blob, &decoded); err != nil {
		return fmt.Errorf("snapshot does not round-trip through JSON: %w", err)
	}
	opsMatch := len(decoded.Ops) == len(snap.Ops)
	for name, st := range snap.Ops {
		if decoded.Ops[name].Count != st.Count {
			opsMatch = false
		}
	}
	rt := obsRoundtrip{
		OpsMatch:         opsMatch,
		RebalancePauseNs: decoded.Rebalance.PauseNs.Count,
		WALFsyncSamples:  dsnap.WAL.FsyncNs.Count,
		WALAppends:       dsnap.WAL.Appends,
		Events:           len(eng.Events(0)),
	}
	if !rt.OpsMatch {
		return fmt.Errorf("op counts did not survive the JSON round-trip")
	}
	if rt.RebalancePauseNs == 0 {
		return fmt.Errorf("rebalance pause histogram empty after a forced rebalance")
	}
	if rt.WALFsyncSamples == 0 {
		return fmt.Errorf("WAL fsync histogram empty after a SyncModeAlways burst")
	}

	art := obsArtifact{
		Benchmark:         "obs-overhead",
		Rows:              rows,
		OpsPerTrial:       opsPerTrial,
		Trials:            trials,
		SampleEvery:       8,
		DisabledOpsPerSec: disabled,
		EnabledOpsPerSec:  enabled,
		OverheadPct:       overhead,
		Roundtrip:         rt,
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		GOOS:              runtime.GOOS,
		GeneratedAt:       time.Now().UTC().Format(time.RFC3339),
	}
	blob, err = json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("obs overhead: disabled %.0f ops/s, enabled %.0f ops/s (%+.2f%%); artifact %s\n",
		disabled, enabled, overhead, outPath)
	return nil
}
