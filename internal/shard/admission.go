package shard

// Write admission control (ROADMAP "Scenario diversity"): a hierarchical
// token bucket that keeps a write burst from outrunning background
// retraining. Every gated write takes one token; tokens are minted at an
// adaptive rate the governor derives from the drift monitors — the same
// per-shard access histograms that trigger retraining (retrain.go). When a
// shard's histogram has drifted far from its training baseline AND a deep
// backlog of untrained operations has built up, the refill rate is squeezed
// toward a floor, trading write throughput for the retrainer's chance to
// catch up; with no drift pressure the bucket refills at the configured
// ceiling and admission costs one mutex acquire per write.
//
// Fairness is per tenant lane: each of the policy's Tenants lanes owns a
// guaranteed slice (rate/Tenants refill, burst/Tenants cap) and overflow
// from full lanes spills into a shared bucket any lane may borrow from —
// so an idle tenant's share is not wasted, but a flash-crowding tenant can
// never starve the others below their guarantee. Tokens are minted in
// exactly one lane and spill (never duplicate), so total admission per
// second is bounded by the adaptive rate regardless of lane traffic.
//
// Backpressure shape is selected by AdmissionPolicy.MaxWait: zero sheds
// immediately with ErrOverload; positive blocks the writer up to that
// deadline before shedding. Every gated write — Engine.Insert, Delete and
// UpdateKey on lane 0, and the tenant-scoped Writer handle — surfaces
// ErrOverload. The controller never holds any engine lock while a writer
// waits — admission resolves strictly before the write enters the gated
// write path, so a shed op is never partially applied.

import (
	"errors"
	"sync"
	"time"
)

// ErrOverload is returned by admission-gated writes when the token bucket
// is exhausted and the policy's MaxWait (if any) elapsed — the engine is
// shedding write load to let retraining catch up. Callers should back off
// and retry; the op was NOT applied.
var ErrOverload = errors.New("shard: write shed by admission control (overload)")

// AdmissionPolicy configures the write admission controller on Config.
// The zero value disables admission control entirely.
type AdmissionPolicy struct {
	// MaxWriteRate is the refill ceiling in writes/sec; <= 0 disables
	// admission control. The governor adapts the live rate between
	// MinRateFrac*MaxWriteRate and MaxWriteRate from drift pressure.
	MaxWriteRate float64
	// Burst is the total bucket capacity in writes (default
	// MaxWriteRate/4, min 64): the size of a spike absorbed without
	// queueing.
	Burst int
	// MaxWait selects the backpressure shape: 0 sheds immediately with
	// ErrOverload; > 0 blocks up to MaxWait for a token, then sheds.
	MaxWait time.Duration
	// Tenants is the number of fairness lanes (default 1). Writers name
	// their lane through Engine.Writer(tenant); out-of-range tenants wrap.
	Tenants int
	// AdaptEvery is the governor cadence re-deriving the refill rate from
	// the drift monitors (default 50ms).
	AdaptEvery time.Duration
	// MinRateFrac floors the adaptive rate at this fraction of
	// MaxWriteRate (default 0.1), so full drift pressure throttles writes
	// hard but never to a standstill.
	MinRateFrac float64
	// LagRef normalizes the retrain-lag signal: a shard's ops-since-train
	// count is capped at LagRef and mapped to [0,1] (default the monitor
	// window, 8192). Smaller reacts faster to write bursts.
	LagRef int
}

func (p AdmissionPolicy) withDefaults() AdmissionPolicy {
	if p.Burst <= 0 {
		p.Burst = int(p.MaxWriteRate / 4)
		if p.Burst < 64 {
			p.Burst = 64
		}
	}
	if p.Tenants < 1 {
		p.Tenants = 1
	}
	if p.AdaptEvery <= 0 {
		p.AdaptEvery = 50 * time.Millisecond
	}
	if p.MinRateFrac <= 0 || p.MinRateFrac > 1 {
		p.MinRateFrac = 0.1
	}
	if p.LagRef <= 0 {
		p.LagRef = 8192
	}
	return p
}

// admission is the per-engine controller. All bucket state is guarded by
// mu; waits happen with mu released (see the lock-order rule in the package
// comment — admission never nests inside a gate stripe or shard lock).
type admission struct {
	e   *Engine
	pol AdmissionPolicy

	mu     sync.Mutex
	lanes  []float64 // per-tenant guaranteed tokens, cap Burst/Tenants
	shared float64   // spillover from full lanes, cap Burst
	rate   float64   // current adaptive total refill, writes/sec
	last   time.Time // last mint

	stop chan struct{}
	done chan struct{}

	// onShed (test seam) runs under mu at every shed decision with the
	// rejected lane's and the shared bucket's token counts — both are < 1
	// by construction, which the race suite asserts.
	onShed func(lane, shared float64)
}

// startAdmission attaches a controller to e per cfg. No-op when the policy
// is zero. Called once from New; the controller participates in monitor
// refcounting so the drift signal flows even with no retrainer running.
func (e *Engine) startAdmission(pol AdmissionPolicy) {
	if pol.MaxWriteRate <= 0 {
		return
	}
	pol = pol.withDefaults()
	a := &admission{
		e: e, pol: pol,
		lanes:  make([]float64, pol.Tenants),
		shared: 0,
		rate:   pol.MaxWriteRate,
		last:   time.Now(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	// Start full: the guaranteed lanes hold their caps and the remainder
	// of the burst sits in the shared bucket.
	laneCap := float64(pol.Burst) / float64(pol.Tenants)
	for i := range a.lanes {
		a.lanes[i] = laneCap
	}
	a.shared = float64(pol.Burst) - laneCap*float64(pol.Tenants)
	e.obs.AdmissionRate.SetFloat(a.rate)
	e.monOn.Add(1)
	e.adm = a
	go a.govern()
}

// stopAdmission halts the governor. Idempotent; called from Close.
func (e *Engine) stopAdmission() {
	a := e.adm
	if a == nil {
		return
	}
	e.adm = nil
	close(a.stop)
	<-a.done
	e.monOn.Add(-1)
}

// AdmissionTokens reports the current token counts of one tenant's lane and
// the shared bucket (diagnostics and tests; racy by nature).
func (e *Engine) AdmissionTokens(tenant int) (lane, shared float64) {
	a := e.adm
	if a == nil {
		return 0, 0
	}
	t := laneOf(tenant, a.pol.Tenants)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.mintLocked(time.Now())
	return a.lanes[t], a.shared
}

func laneOf(tenant, lanes int) int {
	t := tenant % lanes
	if t < 0 {
		t += lanes
	}
	return t
}

// mintLocked accrues tokens for the time since the last mint: each lane
// earns rate/Tenants, overflow past the lane cap spills into the shared
// bucket, and the shared bucket itself is capped at Burst. Every token is
// minted exactly once, so admission per second never exceeds rate.
func (a *admission) mintLocked(now time.Time) {
	dt := now.Sub(a.last).Seconds()
	if dt <= 0 {
		return
	}
	a.last = now
	perLane := a.rate * dt / float64(a.pol.Tenants)
	laneCap := float64(a.pol.Burst) / float64(a.pol.Tenants)
	for i := range a.lanes {
		a.lanes[i] += perLane
		if a.lanes[i] > laneCap {
			a.shared += a.lanes[i] - laneCap
			a.lanes[i] = laneCap
		}
	}
	if a.shared > float64(a.pol.Burst) {
		a.shared = float64(a.pol.Burst)
	}
}

// admit gates one write for the given tenant per the policy: immediate
// ErrOverload when MaxWait is zero, else a block bounded by MaxWait. Instrumentation: exactly one of admitted/shed per
// call, queued once for any call that waited, wait time observed for every
// waiter (admitted or shed).
func (e *Engine) admit(tenant int) error {
	a := e.adm
	if a == nil {
		return nil
	}
	t := laneOf(tenant, a.pol.Tenants)
	var queuedAt time.Time
	var deadline time.Time
	for {
		a.mu.Lock()
		now := time.Now()
		a.mintLocked(now)
		if a.lanes[t] >= 1 {
			a.lanes[t]--
			a.mu.Unlock()
			e.admitted(t, queuedAt, now)
			return nil
		}
		if a.shared >= 1 {
			a.shared--
			a.mu.Unlock()
			e.admitted(t, queuedAt, now)
			return nil
		}
		// No token anywhere. Shed or queue.
		if a.pol.MaxWait <= 0 {
			if a.onShed != nil {
				a.onShed(a.lanes[t], a.shared)
			}
			a.mu.Unlock()
			e.obs.AdmissionShed.Inc(t)
			return ErrOverload
		}
		if queuedAt.IsZero() {
			queuedAt = now
			deadline = now.Add(a.pol.MaxWait)
			e.obs.AdmissionQueued.Inc(t)
		}
		if !now.Before(deadline) {
			if a.onShed != nil {
				a.onShed(a.lanes[t], a.shared)
			}
			a.mu.Unlock()
			e.obs.AdmissionShed.Inc(t)
			e.obs.AdmissionWaitNs.Observe(t, now.Sub(queuedAt).Nanoseconds())
			return ErrOverload
		}
		// Estimate the wait for this lane's next guaranteed token; the
		// shared bucket may refill sooner (spill from idle lanes), so the
		// sleep is clamped short and the loop re-checks.
		laneRate := a.rate / float64(a.pol.Tenants)
		a.mu.Unlock()
		wait := time.Duration(float64(time.Second) / laneRate)
		if wait > 2*time.Millisecond {
			wait = 2 * time.Millisecond
		}
		if wait < 50*time.Microsecond {
			wait = 50 * time.Microsecond
		}
		if left := time.Until(deadline); left < wait {
			wait = left
		}
		if wait <= 0 {
			wait = time.Microsecond
		}
		select {
		case <-a.stop:
			// Engine closing: stop blocking writers. Admit rather than
			// shed — the invariantly-counted paths stay balanced and the
			// write proceeds to fail (or not) on its own merits.
			e.admitted(t, queuedAt, time.Now())
			return nil
		case <-time.After(wait):
		}
	}
}

// admitted records the admit-side instrumentation.
func (e *Engine) admitted(lane int, queuedAt, now time.Time) {
	e.obs.AdmissionAdmitted.Inc(lane)
	if !queuedAt.IsZero() {
		e.obs.AdmissionWaitNs.Observe(lane, now.Sub(queuedAt).Nanoseconds())
	}
}

// govern is the background governor: every AdaptEvery it folds the drift
// monitors into a pressure score and re-derives the refill rate.
//
//	pressure = max over shards of drift · min(1, sinceTrain/LagRef)
//	rate     = MaxWriteRate · (1 − (1 − MinRateFrac) · pressure)
//
// Drift alone (a shifted read mix the layouts already absorbed) does not
// throttle until a backlog of untrained operations corroborates it, and a
// backlog of well-predicted operations (no drift) costs nothing — only the
// combination "access pattern moved AND retraining is behind" squeezes the
// write rate.
func (a *admission) govern() {
	defer close(a.done)
	tick := time.NewTicker(a.pol.AdaptEvery)
	defer tick.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-tick.C:
			var pressure float64
			for _, s := range a.e.shards {
				since, drift := s.mon.stats()
				lag := float64(since) / float64(a.pol.LagRef)
				if lag > 1 {
					lag = 1
				}
				if p := drift * lag; p > pressure {
					pressure = p
				}
			}
			rate := a.pol.MaxWriteRate * (1 - (1-a.pol.MinRateFrac)*pressure)
			a.mu.Lock()
			// Settle accrual at the old rate before switching.
			a.mintLocked(time.Now())
			a.rate = rate
			a.mu.Unlock()
			a.e.obs.AdmissionRate.SetFloat(rate)
		}
	}
}

// Writer is a tenant-scoped write handle: every write submitted through it
// passes admission as that tenant's lane and surfaces ErrOverload per the
// engine's AdmissionPolicy. On an engine without admission control it is a
// zero-cost veneer over the plain write methods.
type Writer struct {
	e      *Engine
	tenant int
}

// Writer returns a write handle bound to the given tenant lane.
func (e *Engine) Writer(tenant int) *Writer { return &Writer{e: e, tenant: tenant} }

// Insert adds a row (Q4) through admission as this writer's tenant.
func (w *Writer) Insert(key int64) error {
	if err := w.e.admit(w.tenant); err != nil {
		return err
	}
	return w.e.insertAdmitted(key)
}

// Delete removes one row (Q5) through admission as this writer's tenant.
func (w *Writer) Delete(key int64) error {
	if err := w.e.admit(w.tenant); err != nil {
		return err
	}
	return w.e.deleteAdmitted(key)
}

// UpdateKey changes one row's key (Q6) through admission as this writer's
// tenant.
func (w *Writer) UpdateKey(old, new int64) error {
	if err := w.e.admit(w.tenant); err != nil {
		return err
	}
	return w.e.updateKeyAdmitted(old, new)
}
