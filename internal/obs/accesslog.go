package obs

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// Access-log pipeline metrics. All increments are plain atomic adds on the
// request path.
var (
	mAccessEvents = NewCounter("countryrank_accesslog_events_total",
		"wide events enqueued for the access-log writer")
	mAccessDropped = NewCounter("countryrank_accesslog_dropped_total",
		"wide events dropped because the access-log ring was full")
)

// An AccessEvent is one request's wide event: everything an operator needs
// to answer "which requests were slow and why" from a single structured
// record. It is a plain value — copying it into the ring allocates
// nothing (the string fields alias memory the request already owns).
type AccessEvent struct {
	Start   time.Time
	Route   string // route class: "country", "top", "snapshot", "other"
	Target  string // country code or top metric key ("" when n/a)
	N       int32  // top-N size (0 when n/a)
	Status  int32
	Bytes   int64
	Latency time.Duration
	Epoch   int64  // snapshot epoch the response was served from
	Digest  string // snapshot content digest
	ETagHit bool   // If-None-Match revalidation answered 304
	Sampled bool   // promoted to a request trace
	Client  string // client address (RemoteAddr)
}

// accessSlot is one ring cell. seq is the Vyukov-style sequence number:
// equal to the cell's claim position when free, position+1 once the event
// is published, and position+capacity after the drainer recycles it.
type accessSlot struct {
	seq atomic.Uint64
	ev  AccessEvent
}

// AccessLogConfig shapes the emission policy.
type AccessLogConfig struct {
	// Capacity is the ring size, rounded up to a power of two (default 1024).
	Capacity int
	// SampleOK head-samples successful responses: 1 logs every 2xx/304,
	// N logs one in N, 0 logs none. Errors and slow requests are always
	// logged regardless.
	SampleOK int
	// SlowAfter always-logs any request at or above this latency (0
	// disables the slow override).
	SlowAfter time.Duration
}

// An AccessLog is a wide-event request log decoupled from request I/O: the
// handler publishes events into a bounded lock-free MPSC ring (one atomic
// CAS claim plus a struct copy, zero allocations, never blocking), and a
// single writer goroutine drains the ring into a slog.Logger. When the
// writer falls behind and the ring fills, new events are dropped and
// counted — backpressure never reaches the serving path.
type AccessLog struct {
	cfg    AccessLogConfig
	logger *slog.Logger

	slots []accessSlot
	mask  uint64
	tail  atomic.Uint64 // next position a producer claims
	head  uint64        // next position the drainer consumes (drainer-owned)

	okSeq atomic.Uint64 // head-sampling counter over successful responses

	wake    chan struct{}
	stop    chan struct{}
	done    chan struct{}
	started bool
	closeMu sync.Mutex
}

// NewAccessLog builds the log emitting through logger. Call Start to begin
// draining; until then events accumulate in (and overflow) the ring.
func NewAccessLog(logger *slog.Logger, cfg AccessLogConfig) *AccessLog {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = 1024
	}
	// Round up to a power of two so position&mask indexes the ring.
	n := 1
	for n < capacity {
		n <<= 1
	}
	l := &AccessLog{
		cfg:    cfg,
		logger: logger,
		slots:  make([]accessSlot, n),
		mask:   uint64(n - 1),
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for i := range l.slots {
		l.slots[i].seq.Store(uint64(i))
	}
	return l
}

// Record applies the emission policy and, when the event qualifies,
// publishes it into the ring. It never blocks and never allocates; a full
// ring drops the event and counts the drop.
func (l *AccessLog) Record(ev AccessEvent) {
	if ev.Status < 400 {
		// Head-sample the healthy traffic; errors and slow requests below
		// always pass.
		if l.cfg.SlowAfter <= 0 || ev.Latency < l.cfg.SlowAfter {
			n := l.cfg.SampleOK
			if n <= 0 || n > 1 && l.okSeq.Add(1)%uint64(n) != 0 {
				return
			}
		}
	}
	for {
		pos := l.tail.Load()
		slot := &l.slots[pos&l.mask]
		seq := slot.seq.Load()
		switch {
		case seq == pos:
			if !l.tail.CompareAndSwap(pos, pos+1) {
				continue // lost the claim race; retry
			}
			slot.ev = ev
			slot.seq.Store(pos + 1) // publish: drainer may now read ev
			mAccessEvents.Inc()
			select {
			case l.wake <- struct{}{}:
			default:
			}
			return
		case seq < pos:
			// The cell still holds an unconsumed event a full lap behind:
			// the ring is full. Drop rather than block the handler.
			mAccessDropped.Inc()
			return
		default:
			// seq > pos: another producer advanced tail past our stale
			// read; reload and retry.
		}
	}
}

// Start launches the writer goroutine. Exposed separately from the
// constructor so tests can measure the producer path with the ring
// quiescent.
func (l *AccessLog) Start() *AccessLog {
	l.closeMu.Lock()
	defer l.closeMu.Unlock()
	if l.started {
		return l
	}
	l.started = true
	go l.drainLoop()
	return l
}

// Close drains any queued events, stops the writer goroutine, and waits
// for it to exit. Safe to call once after Start; a never-started log just
// flushes inline.
func (l *AccessLog) Close() {
	l.closeMu.Lock()
	defer l.closeMu.Unlock()
	if !l.started {
		l.drain()
		return
	}
	l.started = false
	close(l.stop)
	<-l.done
}

func (l *AccessLog) drainLoop() {
	defer close(l.done)
	for {
		l.drain()
		select {
		case <-l.wake:
		case <-l.stop:
			l.drain() // final flush
			return
		}
	}
}

// drain consumes every published event currently in the ring.
func (l *AccessLog) drain() {
	for {
		slot := &l.slots[l.head&l.mask]
		if slot.seq.Load() != l.head+1 {
			return // next cell not yet published
		}
		ev := slot.ev
		slot.ev = AccessEvent{} // drop string references so the GC can reclaim
		slot.seq.Store(l.head + l.mask + 1)
		l.head++
		l.emit(ev)
	}
}

func (l *AccessLog) emit(ev AccessEvent) {
	etag := "miss"
	if ev.ETagHit {
		etag = "hit"
	}
	l.logger.LogAttrs(context.Background(), slog.LevelInfo, "request",
		slog.Time("start", ev.Start),
		slog.String("route", ev.Route),
		slog.String("target", ev.Target),
		slog.Int("n", int(ev.N)),
		slog.Int("status", int(ev.Status)),
		slog.Int64("bytes", ev.Bytes),
		slog.String("etag", etag),
		slog.Int64("epoch", ev.Epoch),
		slog.String("digest", ev.Digest),
		slog.Duration("latency", ev.Latency),
		slog.String("client", ev.Client),
		slog.Bool("sampled", ev.Sampled),
	)
}
