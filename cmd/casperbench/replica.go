package main

// The -replica mode: measure WAL-shipping replication lag against ingest
// rate. A durable leader ingests while a follower in the same process tails
// its WAL; the run samples follower lag during ingest, then stops writing and
// times how long the follower takes to report caught-up. The headline
// assertion — which the CI smoke step relies on — is that lag returns to
// (exactly) zero once ingest stops and the replicated image matches the
// leader row for row.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"casper"
)

type replicaSample struct {
	ElapsedMs      float64 `json:"elapsed_ms"`
	LagMs          float64 `json:"lag_ms"`
	RecordsApplied uint64  `json:"records_applied"`
}

type replicaArtifact struct {
	Benchmark       string          `json:"benchmark"`
	Rows            int             `json:"rows"`
	Ops             int             `json:"ops"`
	Shards          int             `json:"shards"`
	HostCPUs        int             `json:"host_cpus"`
	GoVersion       string          `json:"go_version"`
	IngestOpsPerSec float64         `json:"ingest_ops_per_sec"`
	MaxLagMs        float64         `json:"max_lag_ms"`
	CatchupMs       float64         `json:"catchup_ms"`
	FinalLagMs      float64         `json:"final_lag_ms"`
	RecordsApplied  uint64          `json:"records_applied"`
	AppliedEpoch    uint64          `json:"applied_epoch"`
	LeaderRows      int             `json:"leader_rows"`
	FollowerRows    int             `json:"follower_rows"`
	Samples         []replicaSample `json:"samples"`
}

// runReplica drives the leader/follower pair and writes the JSON artifact.
func runReplica(rows, measuredOps int, seed int64, outPath string) error {
	if rows <= 0 {
		rows = 200_000
	}
	if measuredOps <= 0 {
		measuredOps = 50_000
	}
	root, err := os.MkdirTemp("", "casperbench-replica-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	opts := casper.Options{Mode: casper.ModeCasper, Shards: 4, Dir: root, Sync: casper.SyncModeNone}
	keys := casper.UniformKeys(rows, int64(rows)*10, seed)
	leader, err := casper.Open(keys, opts)
	if err != nil {
		return fmt.Errorf("leader: %w", err)
	}
	defer leader.Close()
	follower, err := casper.OpenFollower(root, opts)
	if err != nil {
		return fmt.Errorf("follower: %w", err)
	}
	defer follower.Close()

	batch := make([]casper.Op, measuredOps)
	for i := range batch {
		batch[i] = casper.Op{Kind: casper.Insert, Key: int64(rows)*10 + 1 + int64(i)}
	}

	fmt.Printf("replication lag: %d initial rows, %d inserts, 4 shards\n\n", rows, measuredOps)
	art := replicaArtifact{
		Benchmark: "casperbench -replica",
		Rows:      rows,
		Ops:       measuredOps,
		Shards:    4,
		HostCPUs:  runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}

	// Ingest in a goroutine; sample follower lag on a short cadence.
	start := time.Now()
	done := make(chan struct{})
	var ingestErr error
	go func() {
		defer close(done)
		_, ingestErr = leader.ApplyBatch(batch)
	}()
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
sampling:
	for {
		select {
		case <-done:
			break sampling
		case <-ticker.C:
			lag := follower.Lag()
			art.Samples = append(art.Samples, replicaSample{
				ElapsedMs:      time.Since(start).Seconds() * 1e3,
				LagMs:          lag.Seconds() * 1e3,
				RecordsApplied: follower.Metrics().Replica.RecordsApplied,
			})
			if ms := lag.Seconds() * 1e3; ms > art.MaxLagMs {
				art.MaxLagMs = ms
			}
		}
	}
	ingest := time.Since(start)
	if ingestErr != nil {
		return fmt.Errorf("leader ingest: %w", ingestErr)
	}
	art.IngestOpsPerSec = float64(measuredOps) / ingest.Seconds()

	// Ingest has stopped: the follower must drain the remaining tail and
	// report zero lag.
	t0 := time.Now()
	if !follower.WaitCaughtUp(30 * time.Second) {
		return fmt.Errorf("follower did not catch up within 30s (err=%v, lag=%v)",
			follower.Err(), follower.Lag())
	}
	art.CatchupMs = time.Since(t0).Seconds() * 1e3
	art.FinalLagMs = follower.Lag().Seconds() * 1e3
	if art.FinalLagMs != 0 {
		return fmt.Errorf("follower lag %.3fms after catch-up; want 0", art.FinalLagMs)
	}
	m := follower.Metrics().Replica
	art.RecordsApplied = m.RecordsApplied
	art.AppliedEpoch = m.AppliedEpoch
	art.LeaderRows, art.FollowerRows = leader.Len(), follower.Len()
	if art.RecordsApplied == 0 {
		return fmt.Errorf("follower applied 0 records over %d inserts", measuredOps)
	}
	if art.LeaderRows != art.FollowerRows {
		return fmt.Errorf("row count diverged: leader %d, follower %d", art.LeaderRows, art.FollowerRows)
	}

	fmt.Printf("ingest            %12.0f ops/s  (%d inserts in %.1fms)\n",
		art.IngestOpsPerSec, measuredOps, ingest.Seconds()*1e3)
	fmt.Printf("max lag           %12.2f ms during ingest\n", art.MaxLagMs)
	fmt.Printf("catch-up          %12.2f ms after ingest stopped\n", art.CatchupMs)
	fmt.Printf("final lag         %12.2f ms\n", art.FinalLagMs)
	fmt.Printf("records applied   %12d   (applied epoch %d)\n", art.RecordsApplied, art.AppliedEpoch)
	fmt.Printf("rows              %12d   leader == follower\n", art.LeaderRows)

	buf, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nartifact written to %s\n", outPath)
	return nil
}
