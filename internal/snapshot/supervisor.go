package snapshot

// The Supervisor owns the rebuild lifecycle so the serving path never has
// to: builds run in a supervised goroutine with panic recovery, a per-build
// timeout, jittered exponential backoff on failure, and trigger coalescing.
// The daemon's contract — "serve the last good snapshot, clearly marked
// stale; never serve nothing" — is enforced here:
//
//   - A build that panics, errors, or hangs leaves the published snapshot
//     untouched; the supervisor logs, counts, backs off, and retries.
//   - A quorum-degraded build does not replace a healthy snapshot unless
//     AllowDegraded is set (it is accepted into an empty store, because
//     degraded data still beats no data).
//   - Triggers (SIGHUP, refresh tick) arriving mid-build or mid-backoff
//     coalesce into at most one pending rebuild.
//   - Close cancels the in-flight build's context and returns once the
//     loop drains; a hung build function cannot wedge shutdown — its
//     goroutine is abandoned and its late result discarded.
//
// State machine (one goroutine, run):
//
//	idle ──trigger──▶ building ──ok──▶ publish ──▶ idle
//	                   │  │
//	                   │  └─fail/panic/timeout──▶ backoff ──retry──▶ building
//	                   └─degraded & gated────────▶ idle (last-good kept)
//
// A trigger in `building` or `backoff` sets the pending flag; `backoff` is
// cut short by Close only.

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"countryrank/internal/obs"
)

var (
	mBuildFailures = obs.NewCounter("countryrank_rankd_build_failures_total",
		"rebuilds that returned an error or exceeded the build timeout")
	mBuildPanics = obs.NewCounter("countryrank_rankd_build_panics_total",
		"rebuilds that panicked (recovered; last-good snapshot kept serving)")
	mDegradedRejects = obs.NewCounter("countryrank_rankd_degraded_rejects_total",
		"degraded builds refused by the publish gate while a healthy snapshot was serving")
	mDriftRejects = obs.NewCounter("countryrank_rankd_drift_rejects_total",
		"builds refused by the drift gate (churn score over -drift-gate)")
	mSnapAge = obs.NewFloatGauge("countryrank_rankd_snapshot_age_seconds",
		"seconds since the served snapshot's data was built (persist time for warm-loaded snapshots)")
)

// errGateRejected marks a build that completed and that a publish gate
// refused. It is not a failure: the supervisor logs, counts, and waits for
// the next trigger without backing off.
var errGateRejected = errors.New("snapshot: build rejected by a publish gate")

// A publishGate can refuse a finished build. refuse is asked with the
// serving snapshot (nil for an empty store), the candidate and their drift
// (nil when either side lacks rank vectors); a refusal is logged under the
// gate's name and counted, and the last-good snapshot keeps serving.
type publishGate struct {
	name    string
	rejects *obs.Counter
	refuse  func(cur, next *Snapshot, drift *Drift) bool
}

// gates lists the publish gates in the order they are asked; the first to
// refuse wins. Both protect a snapshot that is serving: neither refuses
// into an empty store.
func (c SupervisorConfig) gates() []publishGate {
	return []publishGate{
		// Degraded data still beats no data, and beats other degraded data:
		// only a healthy serving snapshot is protected.
		{"degraded", mDegradedRejects, func(cur, next *Snapshot, _ *Drift) bool {
			return next.Degraded && !c.AllowDegraded && cur != nil && !cur.Degraded
		}},
		{"drift", mDriftRejects, func(_, _ *Snapshot, drift *Drift) bool {
			return drift != nil && c.DriftGate > 0 && drift.MaxChurn > c.DriftGate
		}},
	}
}

// SupervisorConfig shapes the rebuild loop.
type SupervisorConfig struct {
	// Build produces the next snapshot for the given epoch. It runs on the
	// supervisor's build goroutine and should honor ctx for cancellation;
	// even if it does not, a timeout or shutdown abandons it (the loop
	// moves on and the late result is discarded).
	Build func(ctx context.Context, epoch int64) (*Snapshot, error)
	// BuildTimeout bounds one build attempt; 0 means no timeout.
	BuildTimeout time.Duration
	// BaseBackoff/MaxBackoff shape the jittered exponential retry delay
	// after a failed build (same shape as the collector feeder: double from
	// base, cap at max, jitter to 50–150%). Zero values pick 1s/1m.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// AllowDegraded lets a quorum-degraded build replace a healthy
	// snapshot. Default off: degraded data only publishes into an empty
	// store or over an already-degraded snapshot.
	AllowDegraded bool
	// DriftGate, when positive, refuses to publish a build whose drift
	// churn score (Drift.MaxChurn vs the outgoing snapshot) exceeds it —
	// an implausibly large rank shuffle is more often an ingest bug than
	// the world changing. Treated like the degraded gate: logged, counted,
	// no backoff, last-good snapshot keeps serving. Zero publishes whatever
	// the drift; it is computed, logged and exported either way.
	DriftGate float64
	// StaleAfter flips Ready to false when the served snapshot's age
	// exceeds it; 0 disables staleness-based unreadiness.
	StaleAfter time.Duration
	// Persist, when non-nil, durably saves every published snapshot.
	Persist *Persister
	// OnPublish, when non-nil, observes every snapshot the supervisor
	// publishes (after the store swap and the durable save). Called from
	// the supervisor goroutine.
	OnPublish func(s *Snapshot)
	// Seed feeds the backoff jitter; 0 derives from the current time.
	Seed int64
}

func (c SupervisorConfig) baseBackoff() time.Duration {
	if c.BaseBackoff <= 0 {
		return time.Second
	}
	return c.BaseBackoff
}

func (c SupervisorConfig) maxBackoff() time.Duration {
	if c.MaxBackoff <= 0 {
		return time.Minute
	}
	return c.MaxBackoff
}

// buildResult crosses from the build goroutine back to the loop.
type buildResult struct {
	snap     *Snapshot
	err      error
	panicked bool
}

// Supervisor runs the publish loop. Create with NewSupervisor, feed it with
// Trigger, stop it with Close.
type Supervisor struct {
	store *Store
	cfg   SupervisorConfig
	rng   *rand.Rand // loop goroutine only

	trigger chan string // cap 1: pending-rebuild flag with a reason
	ctx     context.Context
	cancel  context.CancelFunc
	done    chan struct{}

	epoch       atomic.Int64
	publishedAt atomic.Int64 // unix nanos of the served snapshot's data time
	lastDrift   atomic.Pointer[Drift]
	closeOnce   sync.Once

	// ageTick is overridable by tests; defaults to 1s.
	ageTick time.Duration
}

// NewSupervisor starts the rebuild loop over st. The store may already hold
// a warm-loaded snapshot (its SavedAt seeds the age accounting) or be
// empty. firstEpoch is the epoch the next build publishes.
func NewSupervisor(st *Store, firstEpoch int64, cfg SupervisorConfig) *Supervisor {
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Supervisor{
		store:   st,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(seed)),
		trigger: make(chan string, 1),
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		ageTick: time.Second,
	}
	s.epoch.Store(firstEpoch - 1)
	if warm := st.Load(); warm != nil {
		at := warm.SavedAt
		if at.IsZero() {
			at = time.Now()
		}
		s.publishedAt.Store(at.UnixNano())
		s.refreshAge()
	}
	go s.run()
	return s
}

// Trigger requests a rebuild. Non-blocking: a trigger arriving while a
// build is running (or one is already pending) coalesces — the loop runs at
// most one more build after the current one, which is correct because a
// build started after the trigger observes all state the trigger meant to
// pick up.
func (s *Supervisor) Trigger(reason string) {
	select {
	case s.trigger <- reason:
	default: // already pending; coalesce
	}
}

// Epoch returns the last epoch the supervisor assigned to a build.
func (s *Supervisor) Epoch() int64 { return s.epoch.Load() }

// LastDrift returns the drift of the most recent publish that replaced an
// existing snapshot (nil before the second publish, or when either side
// lacked rank vectors).
func (s *Supervisor) LastDrift() *Drift { return s.lastDrift.Load() }

// Age returns how long ago the served snapshot's data was produced (the
// previous process's persist time for warm-loaded snapshots). Zero when
// nothing is published yet.
func (s *Supervisor) Age() time.Duration {
	at := s.publishedAt.Load()
	if at == 0 {
		return 0
	}
	return time.Since(time.Unix(0, at))
}

// Ready reports readiness: a snapshot is published and, when StaleAfter is
// set, its age is within bounds. The detail string explains a false.
func (s *Supervisor) Ready() (string, bool) {
	snap := s.store.Load()
	if snap == nil {
		return "no snapshot published", false
	}
	if s.cfg.StaleAfter > 0 {
		if age := s.Age(); age > s.cfg.StaleAfter {
			return fmt.Sprintf("snapshot stale: age %s exceeds %s",
				age.Round(time.Second), s.cfg.StaleAfter), false
		}
	}
	if snap.Stale {
		return "serving warm-loaded snapshot (rebuild pending)", true
	}
	return "ok", true
}

// Close cancels any in-flight build and stops the loop; it returns once
// the loop goroutine has exited. Safe to call more than once.
func (s *Supervisor) Close() {
	s.closeOnce.Do(s.cancel)
	<-s.done
}

func (s *Supervisor) refreshAge() { mSnapAge.Set(s.Age().Seconds()) }

// run is the supervisor loop: waits for triggers, runs builds, publishes,
// backs off on failure. Exits when the supervisor context is canceled.
func (s *Supervisor) run() {
	defer close(s.done)
	age := time.NewTicker(s.ageTick)
	defer age.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-age.C:
			s.refreshAge()
		case reason := <-s.trigger:
			s.buildUntilPublished(reason)
		}
	}
}

// buildUntilPublished attempts builds with backoff until one publishes, the
// publish gate rejects a degraded result (not a failure; give up until the
// next trigger), or shutdown. Triggers that arrive during the attempt are
// coalesced by the 1-cap channel and served by the caller's next loop turn.
func (s *Supervisor) buildUntilPublished(reason string) {
	for attempt := 1; ; attempt++ {
		err := s.buildOnce(reason)
		if err == nil || errors.Is(err, errGateRejected) || s.ctx.Err() != nil {
			return
		}
		d := backoffDelay(s.rng, s.cfg.baseBackoff(), s.cfg.maxBackoff(), attempt)
		slog.Warn("snapshot build failed; backing off",
			"reason", reason, "attempt", attempt, "backoff", d.Round(time.Millisecond), "err", err)
		t := time.NewTimer(d)
		select {
		case <-s.ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// buildOnce runs a single supervised build attempt and publishes on
// success. The build function runs on its own goroutine so a hang can be
// abandoned: the result channel is buffered, so a late completion after
// timeout sends without blocking and is simply never read.
func (s *Supervisor) buildOnce(reason string) error {
	epoch := s.epoch.Add(1)
	ctx := s.ctx
	cancel := context.CancelFunc(func() {})
	if s.cfg.BuildTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.BuildTimeout)
	}
	defer cancel()

	resc := make(chan buildResult, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				resc <- buildResult{err: fmt.Errorf("snapshot: build panicked: %v", r), panicked: true}
			}
		}()
		snap, err := s.cfg.Build(ctx, epoch)
		resc <- buildResult{snap: snap, err: err}
	}()

	var res buildResult
	select {
	case res = <-resc:
	case <-ctx.Done():
		// Timeout or shutdown. The build goroutine may still be running if
		// Build ignores ctx; abandon it — the buffered channel absorbs its
		// eventual result, and an abandoned build's snapshot is unreachable
		// so it is garbage-collected.
		if s.ctx.Err() != nil {
			return s.ctx.Err() // shutdown: not a failure, no backoff
		}
		mBuildFailures.Inc()
		s.epoch.Add(-1) // epoch not consumed: the attempt produced nothing
		return fmt.Errorf("snapshot: build timed out after %s", s.cfg.BuildTimeout)
	}

	switch {
	case res.panicked:
		mBuildPanics.Inc()
		mBuildFailures.Inc()
		s.epoch.Add(-1)
		slog.Error("snapshot build panicked; last-good snapshot keeps serving",
			"reason", reason, "epoch", epoch, "err", res.err)
		return res.err
	case res.err != nil:
		mBuildFailures.Inc()
		s.epoch.Add(-1)
		if s.ctx.Err() != nil {
			return s.ctx.Err()
		}
		return res.err
	case res.snap == nil:
		mBuildFailures.Inc()
		s.epoch.Add(-1)
		return errors.New("snapshot: build returned nil snapshot without error")
	}

	// Every rollover that replaces a snapshot with rank vectors is diffed
	// against it; the gates see the drift, and so does the log, the
	// countryrank_drift_* export and the history ring when none refuses.
	next := res.snap
	cur := s.store.Load()
	drift := Diff(cur, next)
	for _, g := range s.cfg.gates() {
		if !g.refuse(cur, next, drift) {
			continue
		}
		g.rejects.Inc()
		s.epoch.Add(-1)
		attrs := []any{"reason", reason,
			"rejected_digest", shortDigest(next.Digest), "serving_digest", shortDigest(cur.Digest)}
		if drift != nil {
			attrs = append(attrs, "churn", drift.MaxChurn, "gate", s.cfg.DriftGate, "drift", drift.Summary())
		}
		slog.Warn(g.name+" gate: build rejected; last-good snapshot keeps serving", attrs...)
		return errGateRejected
	}

	// Warm-start verification: the first real build replaces a disk-loaded
	// snapshot, so compare content digests — matching means the persisted
	// generation was byte-exact with what this process computes.
	if cur != nil && cur.Stale {
		if cur.Digest == next.Digest {
			slog.Info("warm-start verified: persisted snapshot matches rebuilt content",
				"digest", shortDigest(next.Digest))
		} else {
			slog.Warn("warm-start content drift: rebuilt snapshot differs from persisted generation",
				"persisted", shortDigest(cur.Digest), "rebuilt", shortDigest(next.Digest))
		}
	}

	old := s.store.Publish(next, drift)
	s.publishedAt.Store(time.Now().UnixNano())
	s.refreshAge()
	if drift != nil {
		drift.Export()
		s.lastDrift.Store(drift)
		slog.Info("snapshot drift", "reason", reason, "summary", drift.Summary())
	}
	slog.Info("snapshot published", "reason", reason, "epoch", next.Epoch,
		"digest", shortDigest(next.Digest), "degraded", next.Degraded,
		"changed", old == nil || old.Digest != next.Digest)

	if s.cfg.Persist != nil {
		if path, err := s.cfg.Persist.Save(next); err != nil {
			// Durability is best-effort relative to serving: the swap
			// already happened and stands.
			slog.Error("snapshot persist failed", "epoch", next.Epoch, "err", err)
		} else {
			slog.Info("snapshot persisted", "epoch", next.Epoch, "path", path)
		}
	}
	if s.cfg.OnPublish != nil {
		s.cfg.OnPublish(next)
	}
	return nil
}

// backoffDelay is the collector feeder's backoff shape: exponential from
// base, capped at max, jittered to 50–150% of the nominal delay.
func backoffDelay(rng *rand.Rand, base, max time.Duration, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d/2 + time.Duration(rng.Int63n(int64(d)))
}
