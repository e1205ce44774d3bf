package obs

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SLO exposition metric; /debug/slo serves the full report (every burn
// rate, window counts and the degraded flag), and /healthz the flag.
var mSLOEligible = NewCounter("countryrank_slo_requests_total",
	"responses examined by the SLO engine")

// SLOConfig declares the serving objectives and the windows burn rates are
// computed over. Windows are sized in wall time but granular to Bucket, so
// tests compress an hour-shaped policy into milliseconds by scaling all
// three durations together.
type SLOConfig struct {
	// Availability is the target fraction of responses that must not be
	// server errors (5xx), e.g. 0.999. Zero disables the objective.
	Availability float64
	// LatencyTarget is the target fraction of non-304 responses that must
	// complete under LatencyThreshold, e.g. 0.999 of responses < 5ms.
	// Zero disables the objective. 304s are excluded: a revalidation
	// writes no body and would flatter the distribution.
	LatencyTarget    float64
	LatencyThreshold time.Duration
	// Bucket is the counter rotation granularity (default 5s, at most
	// FastWindow).
	Bucket time.Duration
	// FastWindow and SlowWindow are the burn-rate windows (defaults 5m and
	// 1h). The fast window drives the degraded flip; the slow window gives
	// scrapes the long view.
	FastWindow time.Duration
	SlowWindow time.Duration
	// TripFastBurn degrades /healthz while any objective's fast-window
	// burn rate is at or above it (default 14.4 — the classic "exhausts a
	// 30-day budget in 2 days" page threshold).
	TripFastBurn float64
	// Clock substitutes a fake time source in tests; nil means time.Now.
	Clock func() time.Time
}

func (c *SLOConfig) fill() {
	if c.Bucket <= 0 {
		c.Bucket = 5 * time.Second
	}
	if c.FastWindow <= 0 {
		c.FastWindow = 5 * time.Minute
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = time.Hour
	}
	if c.SlowWindow < c.FastWindow {
		c.SlowWindow = c.FastWindow
	}
	if c.Bucket > c.FastWindow {
		c.Bucket = c.FastWindow // a wider bucket would leave the fast window empty
	}
	if c.TripFastBurn <= 0 {
		c.TripFastBurn = 14.4
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
}

// ParseSLO parses the -slo flag syntax: a comma-separated list of
// key=value clauses. "default" (or "on") selects the defaults.
//
//	availability=99.9            availability target, percent
//	latency=99.9@5ms             latency target percent @ threshold
//	bucket=5s fast=5m slow=1h    rotation granularity and burn windows
//	trip=14.4                    fast-burn degrade threshold
//
// Example: "availability=99.9,latency=99@5ms,fast=1m,slow=30m,trip=10".
func ParseSLO(spec string) (SLOConfig, error) {
	cfg := SLOConfig{Availability: 0.999, LatencyTarget: 0.999, LatencyThreshold: 5 * time.Millisecond}
	cfg.fill()
	if spec == "default" || spec == "on" {
		return cfg, nil
	}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return cfg, fmt.Errorf("obs: slo clause %q is not key=value", clause)
		}
		switch key {
		case "availability":
			pct, err := strconv.ParseFloat(val, 64)
			if err != nil || pct <= 0 || pct >= 100 {
				return cfg, fmt.Errorf("obs: slo availability %q (want percent in (0,100))", val)
			}
			cfg.Availability = pct / 100
		case "latency":
			pctStr, thrStr, ok := strings.Cut(val, "@")
			if !ok {
				return cfg, fmt.Errorf("obs: slo latency %q (want PCT@DURATION)", val)
			}
			pct, err := strconv.ParseFloat(pctStr, 64)
			if err != nil || pct <= 0 || pct >= 100 {
				return cfg, fmt.Errorf("obs: slo latency percent %q", pctStr)
			}
			thr, err := time.ParseDuration(thrStr)
			if err != nil || thr <= 0 {
				return cfg, fmt.Errorf("obs: slo latency threshold %q", thrStr)
			}
			cfg.LatencyTarget, cfg.LatencyThreshold = pct/100, thr
		case "bucket", "fast", "slow":
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return cfg, fmt.Errorf("obs: slo %s %q", key, val)
			}
			switch key {
			case "bucket":
				cfg.Bucket = d
			case "fast":
				cfg.FastWindow = d
			case "slow":
				cfg.SlowWindow = d
			}
		case "trip":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f <= 0 {
				return cfg, fmt.Errorf("obs: slo trip %q", val)
			}
			cfg.TripFastBurn = f
		default:
			return cfg, fmt.Errorf("obs: unknown slo key %q", key)
		}
	}
	if cfg.SlowWindow < cfg.FastWindow {
		return cfg, fmt.Errorf("obs: slo slow window %v shorter than fast %v", cfg.SlowWindow, cfg.FastWindow)
	}
	if cfg.Bucket > cfg.FastWindow {
		return cfg, fmt.Errorf("obs: slo bucket %v longer than fast window %v", cfg.Bucket, cfg.FastWindow)
	}
	return cfg, nil
}

// String renders the config back in ParseSLO syntax (for manifests).
func (c SLOConfig) String() string {
	return fmt.Sprintf("availability=%g,latency=%g@%s,bucket=%s,fast=%s,slow=%s,trip=%g",
		c.Availability*100, c.LatencyTarget*100, c.LatencyThreshold,
		c.Bucket, c.FastWindow, c.SlowWindow, c.TripFastBurn)
}

// sloBucket is one Bucket interval's tally. tick stamps which interval the
// counts belong to; a reader ignores buckets whose tick fell out of its
// window, so idle time ages breaches out without any background goroutine.
type sloBucket struct {
	tick     int64
	total    int64 // all responses
	errors   int64 // 5xx
	eligible int64 // non-304 (latency-objective population)
	slow     int64 // non-304 over the threshold
}

// An SLO tracks availability and latency objectives over sliding
// multi-window counters and derives burn rates: the fraction of the error
// budget being spent, normalized so burn 1.0 consumes the budget exactly
// at the end of the period. Record is on the per-request hot path: under
// one mutex it bumps the bucket now filling and, once per Bucket interval,
// pushes the finished bucket onto a Ring sized to the slow window — no
// allocation, since the push stays within the ring's capacity.
type SLO struct {
	cfg  SLOConfig
	mu   sync.Mutex
	cur  sloBucket
	past *Ring[sloBucket] // completed buckets that saw traffic, oldest first
}

// NewSLO builds the engine; zero-valued config fields take defaults.
func NewSLO(cfg SLOConfig) *SLO {
	cfg.fill()
	return &SLO{cfg: cfg, past: NewRing[sloBucket](int(cfg.SlowWindow / cfg.Bucket))}
}

// Record accounts one response. A 304 revalidation is excluded from the
// latency objective's population.
func (s *SLO) Record(ev AccessEvent) {
	mSLOEligible.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	// The clock is read under the lock so buckets rotate in clock order.
	if tick := s.cfg.Clock().UnixNano() / int64(s.cfg.Bucket); tick != s.cur.tick {
		if s.cur.total > 0 {
			s.past.Push(s.cur)
		}
		s.cur = sloBucket{tick: tick}
	}
	s.cur.total++
	if ev.Status >= 500 {
		s.cur.errors++
	}
	if ev.Status != http.StatusNotModified {
		s.cur.eligible++
		if ev.Latency > s.cfg.LatencyThreshold {
			s.cur.slow++
		}
	}
}

// WindowCounts is one objective's tally over one window.
type WindowCounts struct {
	Good  int64   `json:"good"`
	Bad   int64   `json:"bad"`
	Total int64   `json:"total"`
	Burn  float64 `json:"burn"`
}

// ObjectiveStatus is one objective in the /debug/slo report.
type ObjectiveStatus struct {
	Name        string       `json:"name"`
	Target      float64      `json:"target"`
	ThresholdMS float64      `json:"threshold_ms,omitempty"`
	Fast        WindowCounts `json:"fast"`
	Slow        WindowCounts `json:"slow"`
}

// SLOStatus is the /debug/slo JSON shape.
type SLOStatus struct {
	BucketSeconds     float64           `json:"bucket_seconds"`
	FastWindowSeconds float64           `json:"fast_window_seconds"`
	SlowWindowSeconds float64           `json:"slow_window_seconds"`
	TripFastBurn      float64           `json:"trip_fast_burn"`
	Objectives        []ObjectiveStatus `json:"objectives"`
	Degraded          bool              `json:"degraded"`
	Reason            string            `json:"reason,omitempty"`
}

// sums tallies the buckets whose tick falls inside the trailing window.
func (s *SLO) sums(window time.Duration) (total, errors, eligible, slow int64) {
	s.mu.Lock()
	nowTick := s.cfg.Clock().UnixNano() / int64(s.cfg.Bucket)
	buckets := append(s.past.Items(), s.cur)
	s.mu.Unlock()
	minTick := nowTick - int64(window/s.cfg.Bucket) + 1
	for _, b := range buckets {
		if b.tick < minTick || b.tick > nowTick {
			continue
		}
		total += b.total
		errors += b.errors
		eligible += b.eligible
		slow += b.slow
	}
	return
}

// burn converts a bad/total ratio into a budget burn rate; an empty window
// burns nothing.
func burn(bad, total int64, target float64) float64 {
	if total == 0 || target >= 1 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - target)
}

// Burns returns the availability and latency fast/slow burn rates.
func (s *SLO) Burns() (availFast, availSlow, latFast, latSlow float64) {
	tot, errs, elig, slow := s.sums(s.cfg.FastWindow)
	availFast = burn(errs, tot, s.cfg.Availability)
	latFast = burn(slow, elig, s.cfg.LatencyTarget)
	tot, errs, elig, slow = s.sums(s.cfg.SlowWindow)
	availSlow = burn(errs, tot, s.cfg.Availability)
	latSlow = burn(slow, elig, s.cfg.LatencyTarget)
	return
}

// Degraded reports whether any enabled objective's fast-window burn rate
// is at or above the trip threshold, and which one tripped first.
func (s *SLO) Degraded() (reason string, degraded bool) {
	availFast, _, latFast, _ := s.Burns()
	if s.cfg.Availability > 0 && availFast >= s.cfg.TripFastBurn {
		return fmt.Sprintf("availability fast burn %.2f >= %.2f", availFast, s.cfg.TripFastBurn), true
	}
	if s.cfg.LatencyTarget > 0 && latFast >= s.cfg.TripFastBurn {
		return fmt.Sprintf("latency fast burn %.2f >= %.2f", latFast, s.cfg.TripFastBurn), true
	}
	return "", false
}

// Status assembles the full /debug/slo report.
func (s *SLO) Status() SLOStatus {
	st := SLOStatus{
		BucketSeconds:     s.cfg.Bucket.Seconds(),
		FastWindowSeconds: s.cfg.FastWindow.Seconds(),
		SlowWindowSeconds: s.cfg.SlowWindow.Seconds(),
		TripFastBurn:      s.cfg.TripFastBurn,
	}
	fTot, fErr, fElig, fSlow := s.sums(s.cfg.FastWindow)
	sTot, sErr, sElig, sSlow := s.sums(s.cfg.SlowWindow)
	if s.cfg.Availability > 0 {
		st.Objectives = append(st.Objectives, ObjectiveStatus{
			Name: "availability", Target: s.cfg.Availability,
			Fast: WindowCounts{Good: fTot - fErr, Bad: fErr, Total: fTot, Burn: burn(fErr, fTot, s.cfg.Availability)},
			Slow: WindowCounts{Good: sTot - sErr, Bad: sErr, Total: sTot, Burn: burn(sErr, sTot, s.cfg.Availability)},
		})
	}
	if s.cfg.LatencyTarget > 0 {
		st.Objectives = append(st.Objectives, ObjectiveStatus{
			Name: "latency", Target: s.cfg.LatencyTarget,
			ThresholdMS: float64(s.cfg.LatencyThreshold) / float64(time.Millisecond),
			Fast:        WindowCounts{Good: fElig - fSlow, Bad: fSlow, Total: fElig, Burn: burn(fSlow, fElig, s.cfg.LatencyTarget)},
			Slow:        WindowCounts{Good: sElig - sSlow, Bad: sSlow, Total: sElig, Burn: burn(sSlow, sElig, s.cfg.LatencyTarget)},
		})
	}
	st.Reason, st.Degraded = s.Degraded()
	return st
}
