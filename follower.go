package casper

// Public follower API: WAL-shipping replication behind the same read surface
// as Engine (internal/replica does the tailing and applying).

import (
	"fmt"
	"time"

	"casper/internal/replica"
	"casper/internal/shard"
)

// ErrReadOnly is returned by every write method of a Follower: a follower's
// state is the replicated image of its leader, and a local write would
// silently diverge it. Route writes to the leader engine.
var ErrReadOnly = shard.ErrReadOnly

// Follower is a read-only replica of a durable engine, continuously catching
// up from the leader's directory. Point and range queries, scans, and Views
// serve the follower's applied state (consistent as of its applied epoch);
// every write method fails with ErrReadOnly.
//
// The follower never writes to the leader's directory and keeps no durable
// state of its own: reopening one re-bootstraps from the then-newest
// checkpoint, as does (automatically, mid-flight) a leader checkpoint that
// prunes a segment the follower had not reached.
type Follower struct {
	f *replica.Follower
}

// OpenFollower opens a read-only follower of the durable engine persisted in
// dir — which may be (and typically is) currently open and ingesting in
// another engine instance in this or another process on the same host. Pass
// the same layout-affecting Options the leader runs with (Mode, PayloadCols,
// ChunkValues, …); Dir and durability fields are ignored in favor of dir.
func OpenFollower(dir string, opts Options) (*Follower, error) {
	opts.Dir = dir
	cfg, _, _, err := shardConfig(opts)
	if err != nil {
		return nil, err
	}
	f, err := replica.Open(cfg, replica.Options{})
	if err != nil {
		return nil, fmt.Errorf("casper: %w", err)
	}
	return &Follower{f: f}, nil
}

// PointQuery returns the number of rows with the given key.
func (f *Follower) PointQuery(key int64) int { return f.f.Engine().PointQuery(key) }

// RangeCount returns the number of rows with keys in [lo, hi].
func (f *Follower) RangeCount(lo, hi int64) int { return f.f.Engine().RangeCount(lo, hi) }

// RangeSum sums the keys of rows in [lo, hi] (Q3).
func (f *Follower) RangeSum(lo, hi int64) int64 { return f.f.Engine().RangeSum(lo, hi) }

// MultiRangeSum sums sumCol over keys in [lo, hi] whose payloads pass every
// filter.
func (f *Follower) MultiRangeSum(lo, hi int64, filters []Filter, sumCol int) int64 {
	return f.f.Engine().MultiRangeSum(lo, hi, filters, sumCol)
}

// Payload returns one payload column of the row with the given key.
func (f *Follower) Payload(key int64, col int) (int32, bool) {
	return f.f.Engine().Payload(key, col)
}

// Len returns the follower's live row count at its applied state.
func (f *Follower) Len() int { return f.f.Engine().Len() }

// Scan returns a streaming cursor over keys in [lo, hi] at the follower's
// applied state.
func (f *Follower) Scan(lo, hi int64, opts ScanOptions) *Cursor {
	return f.f.Engine().Scan(lo, hi, opts)
}

// View runs fn over a pinned snapshot of the follower's applied state: the
// apply loop cannot advance the image mid-View, so every query inside fn
// observes one epoch.
func (f *Follower) View(fn func(*View)) { f.f.Engine().View(fn) }

// Insert is rejected: followers are read-only.
func (f *Follower) Insert(key int64) error { return ErrReadOnly }

// Delete is rejected: followers are read-only.
func (f *Follower) Delete(key int64) error { return ErrReadOnly }

// UpdateKey is rejected: followers are read-only.
func (f *Follower) UpdateKey(old, new int64) error { return ErrReadOnly }

// AppliedEpoch returns the highest epoch the follower has applied — the
// consistency point its reads serve.
func (f *Follower) AppliedEpoch() uint64 { return f.f.AppliedEpoch() }

// Lag returns the current replication lag estimate: zero when the last tail
// poll found nothing new, otherwise the time since the follower last
// observed itself caught up with the leader's visible WAL tail.
func (f *Follower) Lag() time.Duration { return f.f.Lag() }

// WaitCaughtUp blocks until the follower has applied everything the leader
// had made visible before the call, or the timeout elapses (returns false).
// Intended for after ingest quiesces; under continuous ingest the follower
// may never report caught-up.
func (f *Follower) WaitCaughtUp(timeout time.Duration) bool { return f.f.WaitCaughtUp(timeout) }

// Err returns the terminal error that stopped the follower's apply loop, or
// nil while it is running. A stopped follower keeps serving reads at its
// last applied state.
func (f *Follower) Err() error { return f.f.Err() }

// Metrics snapshots the follower engine's metrics. The Replica section
// (records applied, applied epoch, lag) is recorded unconditionally; the
// rest of the registry follows the usual first-call-enables rule via the
// underlying engine.
func (f *Follower) Metrics() Snapshot { return f.f.Metrics() }

// Events returns the follower engine's lifecycle events with Seq > since.
func (f *Follower) Events(since uint64) []Event { return f.f.Events(since) }

// Close stops the apply loop and releases the WAL tailers. The follower
// keeps serving reads at its last applied state. Idempotent.
func (f *Follower) Close() error { return f.f.Close() }
