package snapshot

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"countryrank/internal/core"
	"countryrank/internal/obs"
	"countryrank/internal/routing"
	"countryrank/internal/topology"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// fastBackoff keeps supervisor tests quick without changing the shape.
var fastBackoff = SupervisorConfig{BaseBackoff: 5 * time.Millisecond, MaxBackoff: 40 * time.Millisecond, Seed: 42}

// TestSupervisorPublishes is the plain path: one trigger, one build, one
// publish, epoch and age accounted.
func TestSupervisorPublishes(t *testing.T) {
	st := NewStore(nil)
	cfg := fastBackoff
	cfg.Build = func(ctx context.Context, epoch int64) (*Snapshot, error) {
		return Assemble(testData(epoch), Config{}), nil
	}
	sup := NewSupervisor(st, cfg)
	defer sup.Close()

	if _, ready := sup.Ready(); ready {
		t.Error("ready before any publish")
	}
	sup.Trigger("test")
	waitFor(t, 2*time.Second, "first publish", func() bool { return st.Load() != nil })
	snap := st.Load()
	if snap.Epoch != 1 || snap.Stale {
		t.Errorf("published epoch=%d stale=%v, want 1/false", snap.Epoch, snap.Stale)
	}
	if detail, ready := sup.Ready(); !ready {
		t.Errorf("not ready after publish: %s", detail)
	}
	if sup.Age() <= 0 || sup.Age() > time.Minute {
		t.Errorf("age %v implausible for a fresh publish", sup.Age())
	}
}

// TestSupervisorPanicRecovery pins the headline guarantee: a panicking
// build leaves the published snapshot serving, is counted, and is retried
// until a build succeeds.
func TestSupervisorPanicRecovery(t *testing.T) {
	good := Assemble(testData(1), Config{})
	st := NewStore(good)
	panics0 := mBuildPanics.Value()

	var attempts atomic.Int64
	cfg := fastBackoff
	cfg.Build = func(ctx context.Context, epoch int64) (*Snapshot, error) {
		if attempts.Add(1) <= 2 {
			panic(fmt.Sprintf("chaos panic on attempt %d", attempts.Load()))
		}
		return Assemble(testData(epoch), Config{}), nil
	}
	sup := NewSupervisor(st, cfg)
	defer sup.Close()
	sup.Trigger("test")

	waitFor(t, 5*time.Second, "publish after panics", func() bool {
		s := st.Load()
		return s != nil && s.Epoch == 2
	})
	if n := attempts.Load(); n != 3 {
		t.Errorf("build ran %d times, want 3 (2 panics + 1 success)", n)
	}
	if d := mBuildPanics.Value() - panics0; d != 2 {
		t.Errorf("panic counter moved by %d, want 2", d)
	}
}

// TestSupervisorBackoffJitter checks failed builds honor the jittered
// exponential delay: every retry gap is at least half the nominal delay
// (the jitter floor) and the nominal delay doubles per attempt.
func TestSupervisorBackoffJitter(t *testing.T) {
	st := NewStore(nil)
	var mu sync.Mutex
	var times []time.Time
	cfg := SupervisorConfig{BaseBackoff: 30 * time.Millisecond, MaxBackoff: time.Second, Seed: 7}
	cfg.Build = func(ctx context.Context, epoch int64) (*Snapshot, error) {
		mu.Lock()
		times = append(times, time.Now())
		n := len(times)
		mu.Unlock()
		if n <= 3 {
			return nil, errors.New("transient failure")
		}
		return Assemble(testData(epoch), Config{}), nil
	}
	sup := NewSupervisor(st, cfg)
	defer sup.Close()
	sup.Trigger("test")
	waitFor(t, 5*time.Second, "publish after retries", func() bool { return st.Load() != nil })

	mu.Lock()
	defer mu.Unlock()
	if len(times) != 4 {
		t.Fatalf("build ran %d times, want 4", len(times))
	}
	// Attempt k fails → delay nominal 30ms·2^(k-1), jittered to [50%,150%].
	for i := 1; i < len(times); i++ {
		gap := times[i].Sub(times[i-1])
		nominal := cfg.BaseBackoff << (i - 1)
		if gap < nominal/2 {
			t.Errorf("retry %d after %v, below jitter floor %v", i, gap, nominal/2)
		}
		if gap > 3*nominal+time.Second {
			t.Errorf("retry %d after %v, far above jitter ceiling", i, gap)
		}
	}
}

// TestSupervisorCoalescing pins trigger coalescing: five triggers landing
// while a build is in flight collapse into exactly one follow-up build.
func TestSupervisorCoalescing(t *testing.T) {
	st := NewStore(nil)
	var started atomic.Int64
	gate := make(chan struct{})
	cfg := fastBackoff
	cfg.Build = func(ctx context.Context, epoch int64) (*Snapshot, error) {
		started.Add(1)
		<-gate // hold the build until the test releases it
		return Assemble(testData(epoch), Config{}), nil
	}
	sup := NewSupervisor(st, cfg)
	defer sup.Close()

	sup.Trigger("first")
	waitFor(t, 2*time.Second, "first build to start", func() bool { return started.Load() == 1 })
	for i := 0; i < 5; i++ {
		sup.Trigger("mid-build") // all five must coalesce into one pending
	}
	gate <- struct{}{} // finish build 1
	waitFor(t, 2*time.Second, "coalesced build to start", func() bool { return started.Load() == 2 })
	gate <- struct{}{} // finish build 2
	waitFor(t, 2*time.Second, "second publish", func() bool {
		s := st.Load()
		return s != nil && s.Epoch == 2
	})

	// No third build may follow: the five triggers were one pending flag.
	time.Sleep(50 * time.Millisecond)
	if n := started.Load(); n != 2 {
		t.Errorf("%d builds for 1+5 triggers, want exactly 2", n)
	}
}

// TestSupervisorDegradedGate pins the publish gate in all three positions:
// degraded-over-healthy rejected (and not retried — rejection is not
// failure), degraded-into-empty accepted, and -allow-degraded overriding.
func TestSupervisorDegradedGate(t *testing.T) {
	degradedData := func(epoch int64) Data {
		d := testData(epoch)
		d.Degraded = true
		return d
	}

	t.Run("rejected over healthy", func(t *testing.T) {
		healthy := Assemble(testData(1), Config{})
		st := NewStore(healthy)
		rejects0 := mDegradedRejects.Value()
		var builds atomic.Int64
		cfg := fastBackoff
		cfg.Build = func(ctx context.Context, epoch int64) (*Snapshot, error) {
			builds.Add(1)
			return Assemble(degradedData(epoch), Config{}), nil
		}
		sup := NewSupervisor(st, cfg)
		defer sup.Close()
		sup.Trigger("test")
		waitFor(t, 2*time.Second, "countryrank_rankd_degraded_rejects_total to count the rejection", func() bool {
			return mDegradedRejects.Value() > rejects0
		})
		time.Sleep(30 * time.Millisecond) // would-be backoff window
		if st.Load() != healthy {
			t.Error("degraded build replaced the healthy snapshot")
		}
		if n := builds.Load(); n != 1 {
			t.Errorf("rejection retried the build %d times; rejection is not failure", n-1)
		}
	})

	t.Run("accepted into empty store", func(t *testing.T) {
		st := NewStore(nil)
		cfg := fastBackoff
		cfg.Build = func(ctx context.Context, epoch int64) (*Snapshot, error) {
			return Assemble(degradedData(epoch), Config{}), nil
		}
		sup := NewSupervisor(st, cfg)
		defer sup.Close()
		sup.Trigger("test")
		waitFor(t, 2*time.Second, "degraded publish into empty store", func() bool {
			s := st.Load()
			return s != nil && s.Degraded
		})
	})

	t.Run("allow-degraded overrides", func(t *testing.T) {
		healthy := Assemble(testData(1), Config{})
		st := NewStore(healthy)
		cfg := fastBackoff
		cfg.AllowDegraded = true
		cfg.Build = func(ctx context.Context, epoch int64) (*Snapshot, error) {
			return Assemble(degradedData(epoch), Config{}), nil
		}
		sup := NewSupervisor(st, cfg)
		defer sup.Close()
		sup.Trigger("test")
		waitFor(t, 2*time.Second, "degraded publish over healthy", func() bool {
			s := st.Load()
			return s != nil && s.Degraded && s.Epoch == 2
		})
	})
}

// TestSupervisorAbandonsHungBuild pins the hang path: a build that ignores
// its context is abandoned at BuildTimeout, counted as a failure, and the
// retry publishes while the hung goroutine's late result is discarded.
func TestSupervisorAbandonsHungBuild(t *testing.T) {
	st := NewStore(nil)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // unwedge the hung goroutine at test end
	var attempts atomic.Int64
	cfg := fastBackoff
	cfg.BuildTimeout = 30 * time.Millisecond
	cfg.Build = func(ctx context.Context, epoch int64) (*Snapshot, error) {
		if attempts.Add(1) == 1 {
			<-release // hang, ignoring ctx entirely
			return Assemble(testData(999), Config{}), nil
		}
		return Assemble(testData(epoch), Config{}), nil
	}
	fails0 := mBuildFailures.Value()
	sup := NewSupervisor(st, cfg)
	defer sup.Close()
	sup.Trigger("test")

	waitFor(t, 5*time.Second, "publish after hang", func() bool { return st.Load() != nil })
	if got := st.Load().Epoch; got == 999 {
		t.Error("abandoned build's snapshot was published")
	}
	if mBuildFailures.Value() == fails0 {
		t.Error("hung build not counted as a failure")
	}
}

// TestSupervisorTimedOutBuildStops runs a real pipeline as the build: the
// attempt BuildTimeout abandons must return the deadline error at its next
// stage boundary — no later stage's span opens — so it is no longer running,
// beside the retry, when the retry begins.
func TestSupervisorTimedOutBuildStops(t *testing.T) {
	opt := core.Options{Seed: 3, StubScale: 0.15, VPScale: 0.2}
	w := topology.Build(topology.Config{Seed: opt.Seed, StubScale: opt.StubScale, VPScale: opt.VPScale})
	col := routing.BuildCollection(w, routing.BuildOptions{})
	held := core.NewPipelineFrom(w, col, opt)

	var mu sync.Mutex
	var stages []string
	obs.DefaultTrace.OnStart = func(s *obs.Span) {
		mu.Lock()
		stages = append(stages, s.Name)
		mu.Unlock()
	}
	defer func() { obs.DefaultTrace.OnStart = nil }()

	st := NewStore(nil)
	first := make(chan error, 1) // what the abandoned attempt returned
	var attempts atomic.Int64
	cfg := fastBackoff
	cfg.BuildTimeout = 30 * time.Millisecond
	cfg.Build = func(ctx context.Context, epoch int64) (*Snapshot, error) {
		if attempts.Add(1) == 1 {
			// The source outlasts the timeout; every stage after it is ahead.
			slow := func(core.Options, *obs.Span) (*routing.Collection, core.Inputs, error) {
				<-ctx.Done()
				return col, held.Inputs, nil
			}
			_, err := core.Run(ctx, slow, opt)
			first <- err
			return nil, err
		}
		select {
		case err := <-first:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("abandoned build returned %v, want the deadline error", err)
			}
		case <-time.After(2 * time.Second):
			t.Error("abandoned build still running when the retry began")
		}
		return Assemble(testData(epoch), Config{}), nil
	}
	sup := NewSupervisor(st, cfg)
	defer sup.Close()
	sup.Trigger("test")
	waitFor(t, 5*time.Second, "publish after the timed-out attempt", func() bool { return st.Load() != nil })

	mu.Lock()
	defer mu.Unlock()
	if len(stages) != 1 || stages[0] != "pipeline" {
		t.Errorf("abandoned build opened spans %v, want only its pipeline root", stages)
	}
}

// TestSupervisorShutdownCancelsBuild is the SIGTERM regression test: Close
// during a deliberately slow (but context-honoring) build must cancel it
// and return promptly, and the supervisor must not leak goroutines.
func TestSupervisorShutdownCancelsBuild(t *testing.T) {
	beforeGoroutines := runtime.NumGoroutine()

	st := NewStore(nil)
	buildStarted := make(chan struct{})
	var canceled atomic.Bool
	cfg := fastBackoff
	cfg.Build = func(ctx context.Context, epoch int64) (*Snapshot, error) {
		close(buildStarted)
		select {
		case <-ctx.Done(): // the slow build honors cancellation
			canceled.Store(true)
			return nil, ctx.Err()
		case <-time.After(30 * time.Second):
			return Assemble(testData(epoch), Config{}), nil
		}
	}
	sup := NewSupervisor(st, cfg)
	sup.Trigger("test")
	<-buildStarted

	done := make(chan struct{})
	go func() { sup.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return within 2s of a 30s build: shutdown waited for the build")
	}
	// Close cancels the context and returns without waiting for the build
	// goroutine to observe it; give the observation a moment.
	waitFor(t, 2*time.Second, "build to observe cancellation", func() bool {
		return canceled.Load()
	})
	if st.Load() != nil {
		t.Error("canceled build still published")
	}
	sup.Close() // idempotent

	waitFor(t, 2*time.Second, "goroutines to unwind", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= beforeGoroutines
	})
}

// TestSupervisorStaleReadiness checks the /readyz contract: a warm-loaded
// snapshot older than StaleAfter reports not-ready while still serving.
func TestSupervisorStaleReadiness(t *testing.T) {
	warm := Assemble(testData(1), Config{})
	warm.Stale = true
	warm.SavedAt = time.Now().Add(-time.Hour) // persisted an hour ago
	st := NewStore(warm)
	cfg := fastBackoff
	cfg.StaleAfter = time.Minute
	cfg.Build = func(ctx context.Context, epoch int64) (*Snapshot, error) {
		return Assemble(testData(epoch), Config{}), nil
	}
	sup := NewSupervisor(st, cfg)
	defer sup.Close()

	if detail, ready := sup.Ready(); ready {
		t.Errorf("hour-old snapshot with 1m threshold reports ready (%s)", detail)
	}
	// The data is still served despite unreadiness — that is the point.
	if st.Load() == nil {
		t.Fatal("stale snapshot dropped")
	}
	// A successful rebuild restores readiness.
	sup.Trigger("rebuild")
	waitFor(t, 2*time.Second, "readiness after rebuild", func() bool {
		_, ready := sup.Ready()
		return ready
	})
}

// TestSupervisorAgeMovesDuringBackoff: the age gauge the readiness runbook
// points operators at keeps counting while rebuilds fail — exactly when the
// snapshot is going stale — because the registry read refreshes it, not the
// loop, which sits in a backoff here for half an hour or more.
func TestSupervisorAgeMovesDuringBackoff(t *testing.T) {
	warm := Assemble(testData(1), Config{})
	warm.Stale = true
	warm.SavedAt = time.Now().Add(-10 * time.Second)
	st := NewStore(warm)
	var attempts atomic.Int64
	cfg := SupervisorConfig{BaseBackoff: time.Hour, Seed: 3}
	cfg.Build = func(ctx context.Context, epoch int64) (*Snapshot, error) {
		attempts.Add(1)
		return nil, errors.New("upstream down")
	}
	sup := NewSupervisor(st, cfg)
	defer sup.Close()
	sup.Trigger("test")
	waitFor(t, 2*time.Second, "first failed build", func() bool { return attempts.Load() > 0 })

	age := func() float64 {
		obs.Default.Snapshot() // a scrape of the registry
		return mSnapAge.Value()
	}
	first := age()
	time.Sleep(1100 * time.Millisecond)
	if second := age(); second-first < 1 {
		t.Errorf("age gauge read %.2f then %.2f 1.1s later during a backoff, want it to move by at least 1s", first, second)
	}
}

// TestSupervisorChaos drives the supervisor with a seeded schedule of build
// outcomes — ok, panic, error, hang, degraded — under live HTTP load, then
// kill-and-restarts from the durable store. The invariants:
//
//  1. Serving never breaks: every response is a 200 whose ETag/body pair
//     belongs to some published snapshot.
//  2. A degraded build never displaces a healthy snapshot.
//  3. After a simulated crash, a fresh process warm-starts from disk and
//     serves the last published content — marked stale — before any
//     rebuild.
func TestSupervisorChaos(t *testing.T) {
	dir := t.TempDir()
	persist, err := NewPersister(dir, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Distinct content per epoch so every publish changes the AU body.
	buildData := func(epoch int64) Data {
		d := testData(epoch)
		d.Countries = d.Countries[:1] // AU only; faster
		r := testRanking(fmt.Sprintf("CCI AU e%d", epoch))
		d.Countries[0].CCI = r
		return d
	}

	var mu sync.Mutex
	// valid maps ETag → body for every snapshot a build *produced* —
	// registered before the supervisor can swap it in, so a client racing
	// the publish never sees an unregistered response. (A rejected degraded
	// snapshot lands here too; harmless, since it is never served.)
	valid := map[string]string{}
	published := 0
	var lastGood *Snapshot
	produce := func(s *Snapshot) *Snapshot {
		mu.Lock()
		valid[s.CountryETag("AU")] = string(s.CountryBody("AU"))
		mu.Unlock()
		return s
	}

	schedule := "peohdpeod" // panic, error, ok, hang, degraded, ...
	var step atomic.Int64
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	cfg := SupervisorConfig{
		BaseBackoff: 2 * time.Millisecond, MaxBackoff: 10 * time.Millisecond,
		BuildTimeout: 25 * time.Millisecond, Seed: 1, Persist: persist,
	}
	cfg.Build = func(ctx context.Context, epoch int64) (*Snapshot, error) {
		i := int(step.Add(1)) - 1
		op := byte('o')
		if i < len(schedule) {
			op = schedule[i]
		}
		switch op {
		case 'p':
			panic("chaos: scheduled panic")
		case 'e':
			return nil, errors.New("chaos: scheduled error")
		case 'h':
			<-release
			return nil, ctx.Err()
		case 'd':
			d := buildData(epoch)
			d.Degraded = true
			return produce(Assemble(d, Config{})), nil
		default:
			return produce(Assemble(buildData(epoch), Config{})), nil
		}
	}
	cfg.OnPublish = func(s *Snapshot) {
		mu.Lock()
		published++
		lastGood = s
		mu.Unlock()
	}

	st := NewStore(nil)
	sup := NewSupervisor(st, cfg)
	srv := httptest.NewServer(NewHandler(st))
	defer srv.Close()

	// Clients hammer the server for the whole chaos run. Until the first
	// publish a 503 is the designed answer; after it, only consistent 200s.
	var stop atomic.Bool
	var served atomic.Int64
	fail := make(chan string, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			defer client.CloseIdleConnections()
			sawOK := false // once published, the store never empties again
			for !stop.Load() {
				resp, err := client.Get(srv.URL + "/v1/countries/AU")
				if err != nil {
					fail <- fmt.Sprintf("GET: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusServiceUnavailable && !sawOK {
					continue // pre-first-publish: correct refusal
				}
				if resp.StatusCode != http.StatusOK {
					fail <- fmt.Sprintf("status %d after serving began", resp.StatusCode)
					return
				}
				sawOK = true
				mu.Lock()
				want, ok := valid[resp.Header.Get("ETag")]
				mu.Unlock()
				if !ok || string(body) != want {
					fail <- "response does not match any published snapshot"
					return
				}
				served.Add(1)
			}
		}()
	}

	// March through the schedule until four snapshots have published. The
	// supervisor retries past panic/error/hang steps on its own; a degraded
	// step is *rejected* (not retried), so each trigger resolves as either
	// a new publish or a new rejection, and rejected rounds trigger again.
	publishes := func() int { mu.Lock(); defer mu.Unlock(); return published }
	for round := 0; publishes() < 4; round++ {
		if round > 20 {
			t.Fatalf("%d publishes after %d rounds", publishes(), round)
		}
		pubs, rejects := publishes(), mDegradedRejects.Value()
		sup.Trigger(fmt.Sprintf("chaos-%d", round))
		waitFor(t, 10*time.Second, "publish or degraded rejection", func() bool {
			return publishes() > pubs || mDegradedRejects.Value() > rejects
		})
	}

	stop.Store(true)
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
	if served.Load() == 0 {
		t.Error("no responses served during chaos")
	}

	// The degraded step must not have displaced a healthy publish.
	if cur := st.Load(); cur.Degraded {
		t.Error("degraded snapshot displaced a healthy one")
	}

	// "kill -9": drop the supervisor without any graceful persist, then
	// warm-start a fresh store from disk like a new process would.
	sup.Close()
	mu.Lock()
	wantDigest := lastGood.Digest
	wantBody := string(lastGood.CountryBody("AU"))
	mu.Unlock()

	warm, skipped, err := persist.LoadLatest()
	if err != nil || warm == nil {
		t.Fatalf("warm start failed: %v (skipped %d)", err, skipped)
	}
	if warm.Digest != wantDigest {
		t.Errorf("warm-start digest %s != last published %s", shortDigest(warm.Digest), shortDigest(wantDigest))
	}
	if !warm.Stale {
		t.Error("warm-started snapshot not marked stale")
	}
	st2 := NewStore(warm)
	srv2 := httptest.NewServer(NewHandler(st2))
	defer srv2.Close()
	resp, err := http.Get(srv2.URL + "/v1/countries/AU")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != wantBody {
		t.Errorf("restarted server: status %d, body match %v — must serve last-good before any rebuild",
			resp.StatusCode, string(body) == wantBody)
	}
	t.Logf("%d consistent responses across %d published snapshots under chaos", served.Load(), published)
}
