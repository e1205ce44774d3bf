package collector

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"time"

	"countryrank/internal/asn"
	"countryrank/internal/bgp"
	"countryrank/internal/bgpsession"
	"countryrank/internal/obs"
)

var mFeederRetries = obs.NewCounter("countryrank_collector_feeder_retries_total",
	"feeder reconnect attempts after a failed feed")

// FeederConfig parameterizes one vantage point's resilient feed.
type FeederConfig struct {
	// Addr is the collector's TCP address; ignored when Dial is set.
	Addr string
	// Dial overrides the transport, e.g. to wrap the connection in a fault
	// injector. Each attempt dials afresh.
	Dial func(ctx context.Context) (net.Conn, error)

	AS    asn.ASN
	BGPID netip.Addr
	// HoldTime and HandshakeTimeout follow bgpsession defaults when zero.
	HoldTime         time.Duration
	HandshakeTimeout time.Duration

	// MaxAttempts caps connection attempts (default 8). The feed fails
	// loudly once the cap is hit; it never retries forever.
	MaxAttempts int
	// BaseBackoff is the first retry delay (default 50ms); each retry
	// doubles it up to MaxBackoff (default 2s), then jitters the result
	// to 50–150% so reconnect storms decorrelate.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed makes the jitter deterministic for tests.
	Seed int64
}

func (cfg FeederConfig) withDefaults() FeederConfig {
	if cfg.Dial == nil {
		addr := cfg.Addr
		cfg.Dial = func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	return cfg
}

// FeedStats accounts one feed's work across all attempts.
type FeedStats struct {
	// Attempts is the number of connections dialed; Reconnects is
	// Attempts-1 for a feed that eventually succeeded.
	Attempts   int
	Reconnects int
	// Resumed is the total updates skipped thanks to the resume protocol;
	// Sent is the total actually transmitted (including re-sends).
	Resumed int64
	Sent    int64
}

// Feed streams updates to the collector, surviving transport faults: on any
// error before the collector acknowledges the complete table, it backs off
// (jittered exponential, capped) and reconnects, resuming from the
// collector's applied count so the table is never re-sent from scratch.
// It returns once the collector's acknowledgement covers every update, the
// context is cancelled, or MaxAttempts is exhausted.
func Feed(ctx context.Context, cfg FeederConfig, updates []*bgp.Update) (FeedStats, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var stats FeedStats
	var lastErr error
	for attempt := 0; attempt < cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			stats.Reconnects++
			mFeederRetries.Inc()
			if err := sleepCtx(ctx, backoff(rng, cfg, attempt)); err != nil {
				return stats, err
			}
		}
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		stats.Attempts++
		if err := feedOnce(ctx, cfg, updates, &stats); err != nil {
			lastErr = err
			continue
		}
		return stats, nil
	}
	return stats, fmt.Errorf("collector: feed failed after %d attempts: %w",
		cfg.MaxAttempts, lastErr)
}

// feedOnce runs one connection's worth of the protocol: handshake, resume
// marker, update stream, End-of-RIB, acknowledgement.
func feedOnce(ctx context.Context, cfg FeederConfig, updates []*bgp.Update, stats *FeedStats) error {
	conn, err := cfg.Dial(ctx)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	sess, err := bgpsession.Establish(conn, bgpsession.Config{
		AS: cfg.AS, BGPID: cfg.BGPID,
		HoldTime: cfg.HoldTime, HandshakeTimeout: cfg.HandshakeTimeout,
	})
	if err != nil {
		conn.Close()
		return fmt.Errorf("establish: %w", err)
	}
	// Cancellation must unblock Send/Recv mid-feed, so a watcher closes the
	// session when the context dies.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			sess.Close()
		case <-watchDone:
		}
	}()
	acked := false
	defer func() {
		if !acked {
			sess.Close()
		}
	}()

	u, err := sess.Recv()
	if err != nil {
		return fmt.Errorf("resume marker: %w", err)
	}
	applied, ok := markerCount(u)
	if !ok {
		return fmt.Errorf("collector spoke first but not a marker")
	}
	if applied > int64(len(updates)) {
		return fmt.Errorf("collector claims %d applied of %d", applied, len(updates))
	}
	if applied > 0 {
		stats.Resumed += applied
	}
	for _, u := range updates[applied:] {
		if err := sess.Send(u); err != nil {
			return fmt.Errorf("send: %w", err)
		}
		stats.Sent++
	}
	// End-of-RIB, then wait for the collector to acknowledge the count.
	if err := sess.Send(&bgp.Update{}); err != nil {
		return fmt.Errorf("end-of-rib: %w", err)
	}
	ack, err := sess.Recv()
	if err != nil {
		return fmt.Errorf("ack: %w", err)
	}
	got, ok := markerCount(ack)
	if !ok {
		return fmt.Errorf("ack was not a marker")
	}
	if got != int64(len(updates)) {
		return fmt.Errorf("collector acked %d of %d updates", got, len(updates))
	}
	acked = true
	return sess.Close()
}

// backoff computes the delay before the attempt-th retry: exponential from
// BaseBackoff, capped at MaxBackoff, jittered to 50–150%.
func backoff(rng *rand.Rand, cfg FeederConfig, attempt int) time.Duration {
	d := cfg.BaseBackoff
	for i := 1; i < attempt && d < cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > cfg.MaxBackoff {
		d = cfg.MaxBackoff
	}
	return d/2 + time.Duration(rng.Int63n(int64(d)))
}

// sleepCtx sleeps for d or until the context is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
