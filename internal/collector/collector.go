package collector

import (
	"errors"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"countryrank/internal/asn"
	"countryrank/internal/bgp"
	"countryrank/internal/bgpsession"
	"countryrank/internal/obs"
)

var (
	mSessions = obs.NewCounter("countryrank_collector_sessions_total",
		"BGP sessions established by the collector")
	mResumed = obs.NewCounter("countryrank_collector_resumed_sessions_total",
		"sessions resumed from a nonzero applied count")
	mApplied = obs.NewCounter("countryrank_collector_updates_applied_total",
		"UPDATE messages applied to peer tables")
)

// Config parameterizes the collector's BGP speaker identity.
type Config struct {
	AS    asn.ASN
	BGPID netip.Addr
	// HoldTime and HandshakeTimeout follow bgpsession defaults when zero.
	HoldTime         time.Duration
	HandshakeTimeout time.Duration
}

// PeerKey identifies a vantage point across reconnects: the AS and BGP
// identifier from its OPEN. Per-peer state — the table and the applied
// count the resume protocol reports — is keyed by it, so a reconnecting
// peer lands back on its own table.
type PeerKey struct {
	AS    asn.ASN
	BGPID netip.Addr
}

// peerState is the durable per-peer record. run serializes sessions of the
// same peer: a reconnect evicts the stale session, then waits on run until
// the old handler has unwound before touching the table.
type peerState struct {
	run      sync.Mutex
	cur      *bgpsession.Session // guarded by Collector.mu
	table    *bgpsession.Table   // guarded by run
	applied  int64               // guarded by run
	complete bool                // End-of-RIB seen; guarded by run
}

// Stats is a point-in-time snapshot of one collector's counters (the obs
// metrics aggregate across all collectors in the process).
type Stats struct {
	Sessions          int64
	HandshakeFailures int64
	Dropped           int64
	Takeovers         int64
	ResumedSessions   int64
	UpdatesApplied    int64
}

// Collector is a passive BGP speaker accepting many concurrent VP sessions.
// Each accepted connection is supervised in its own goroutine: a session
// failure is counted and its peer state retained for resume, never fatal to
// the collector as a whole.
type Collector struct {
	ln  net.Listener
	cfg Config

	mu     sync.Mutex
	states map[PeerKey]*peerState

	wg sync.WaitGroup

	nSessions, nHandshakeFail, nDropped, nTakeovers, nResumed, nApplied atomic.Int64
}

// Serve starts accepting sessions on ln and returns immediately. Close
// stops the accept loop, tears down live sessions, and waits for handlers.
func Serve(ln net.Listener, cfg Config) *Collector {
	c := &Collector{ln: ln, cfg: cfg, states: map[PeerKey]*peerState{}}
	c.wg.Add(1)
	go c.acceptLoop()
	return c
}

// Addr returns the listener's address, for feeders to dial.
func (c *Collector) Addr() net.Addr { return c.ln.Addr() }

func (c *Collector) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go c.handle(conn)
	}
}

func (c *Collector) handle(conn net.Conn) {
	defer c.wg.Done()
	sess, err := bgpsession.Establish(conn, bgpsession.Config{
		AS: c.cfg.AS, BGPID: c.cfg.BGPID,
		HoldTime: c.cfg.HoldTime, HandshakeTimeout: c.cfg.HandshakeTimeout,
	})
	if err != nil {
		c.nHandshakeFail.Add(1)
		return
	}
	mSessions.Inc()
	c.nSessions.Add(1)
	key := PeerKey{AS: sess.Peer.AS, BGPID: sess.Peer.BGPID}

	c.mu.Lock()
	st := c.states[key]
	if st == nil {
		st = &peerState{table: bgpsession.NewTable()}
		c.states[key] = st
	}
	old := st.cur
	st.cur = sess
	c.mu.Unlock()
	if old != nil {
		// Supervision: a reconnecting peer evicts its stale session rather
		// than waiting for the hold timer to reap it. Closing old unblocks
		// its handler's Recv, which releases st.run below.
		c.nTakeovers.Add(1)
		old.Close()
	}

	defer func() {
		c.mu.Lock()
		if st.cur == sess {
			st.cur = nil
		}
		c.mu.Unlock()
		sess.Close()
	}()

	st.run.Lock()
	defer st.run.Unlock()

	if st.applied > 0 {
		mResumed.Inc()
		c.nResumed.Add(1)
	}
	if err := sess.Send(markerUpdate(st.applied)); err != nil {
		c.nDropped.Add(1)
		return
	}
	for {
		u, err := sess.Recv()
		if err != nil {
			if !cleanEnd(err) {
				c.nDropped.Add(1)
			}
			return
		}
		if isEndOfRIB(u) {
			st.complete = true
			// Acknowledge with the final applied count; the feeder decides
			// success by comparing it against its full table. Keep receiving
			// so the peer's CEASE is consumed as a clean end.
			if err := sess.Send(markerUpdate(st.applied)); err != nil {
				c.nDropped.Add(1)
				return
			}
			continue
		}
		st.table.Apply(u)
		st.applied++
		mApplied.Inc()
		c.nApplied.Add(1)
	}
}

// cleanEnd reports whether a Recv error is an orderly session end: the peer
// hung up (EOF) or sent CEASE. Everything else — resets, hold expiry,
// protocol garbage — counts as a drop.
func cleanEnd(err error) bool {
	if errors.Is(err, io.EOF) {
		return true
	}
	var notif *bgp.Notification
	return errors.As(err, &notif) && notif.Code == bgp.NotifCease
}

// Stats snapshots this collector's counters.
func (c *Collector) Stats() Stats {
	return Stats{
		Sessions:          c.nSessions.Load(),
		HandshakeFailures: c.nHandshakeFail.Load(),
		Dropped:           c.nDropped.Load(),
		Takeovers:         c.nTakeovers.Load(),
		ResumedSessions:   c.nResumed.Load(),
		UpdatesApplied:    c.nApplied.Load(),
	}
}

// Tables returns each peer's table together with whether its feed reached
// End-of-RIB. Tables are live references; call after Close (or once a peer
// is complete) to read them without racing a session handler.
func (c *Collector) Tables() map[PeerKey]*bgpsession.Table {
	c.mu.Lock()
	states := make(map[PeerKey]*peerState, len(c.states))
	for k, st := range c.states {
		states[k] = st
	}
	c.mu.Unlock()
	out := make(map[PeerKey]*bgpsession.Table, len(states))
	for k, st := range states {
		st.run.Lock()
		out[k] = st.table
		st.run.Unlock()
	}
	return out
}

// Complete reports whether the peer delivered its full table (End-of-RIB
// seen), and how many updates were applied for it.
func (c *Collector) Complete(key PeerKey) (int64, bool) {
	c.mu.Lock()
	st := c.states[key]
	c.mu.Unlock()
	if st == nil {
		return 0, false
	}
	st.run.Lock()
	defer st.run.Unlock()
	return st.applied, st.complete
}

// Close stops accepting, closes live sessions, and waits for all session
// handlers to unwind.
func (c *Collector) Close() {
	c.ln.Close()
	c.mu.Lock()
	var live []*bgpsession.Session
	for _, st := range c.states {
		if st.cur != nil {
			live = append(live, st.cur)
		}
	}
	c.mu.Unlock()
	for _, s := range live {
		s.Close()
	}
	c.wg.Wait()
}
