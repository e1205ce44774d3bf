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
		"wide events dropped because the access-log queue was full")
)

// An AccessEvent is one request's wide event: everything an operator needs
// to answer "which requests were slow and why" from a single structured
// record. It is a plain value — sending it through the queue allocates
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
	Client  string // client address (RemoteAddr)
}

// AccessLogConfig shapes the emission policy.
type AccessLogConfig struct {
	// Capacity is how many events may wait for the writer (default 1024:
	// room for a burst while the writer is blocked on a slow sink).
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
// handler sends events into a buffered channel without blocking (a struct
// copy, zero allocations), and a single writer goroutine drains it into a
// slog.Logger. When the writer falls behind and the channel fills, new
// events are dropped and counted — backpressure never reaches the serving
// path. Nothing ever closes the channel, so a Record racing Close cannot
// panic; an event it queues after the writer stopped waits for the next
// Close.
type AccessLog struct {
	cfg    AccessLogConfig
	logger *slog.Logger
	q      chan AccessEvent

	okSeq atomic.Uint64 // head-sampling counter over successful responses

	mu      sync.Mutex // serialises Start and Close, so one goroutine at a time drains q
	started bool
	stop    chan struct{}
	done    chan struct{}
}

// NewAccessLog builds the log emitting through logger. Call Start to begin
// draining; until then events accumulate in (and overflow) the queue.
func NewAccessLog(logger *slog.Logger, cfg AccessLogConfig) *AccessLog {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1024
	}
	return &AccessLog{
		cfg:    cfg,
		logger: logger,
		q:      make(chan AccessEvent, cfg.Capacity),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Record applies the emission policy and, when the event qualifies,
// queues it. It never blocks and never allocates; a full queue drops the
// event and counts the drop.
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
	select {
	case l.q <- ev:
		mAccessEvents.Inc()
	default:
		mAccessDropped.Inc()
	}
}

// Start launches the writer goroutine; a log is started at most once,
// before its first Close. Exposed separately from the constructor so tests
// can measure the producer path with the queue quiescent.
func (l *AccessLog) Start() *AccessLog {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.started {
		l.started = true
		go l.run()
	}
	return l
}

// Close stops the writer goroutine, waits for it to exit, and writes what
// is still queued. A never-started log just flushes inline; each later
// Close flushes what Records queued since.
func (l *AccessLog) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.started {
		l.started = false
		close(l.stop)
		<-l.done
	}
	for n := len(l.q); n > 0; n-- {
		l.emit(<-l.q)
	}
}

func (l *AccessLog) run() {
	defer close(l.done)
	for {
		select {
		case ev := <-l.q:
			l.emit(ev)
		case <-l.stop:
			return
		}
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
	)
}
