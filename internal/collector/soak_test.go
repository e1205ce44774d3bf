package collector

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"countryrank/internal/bgpsession"
	"countryrank/internal/faultnet"
	"countryrank/internal/obs"
	"countryrank/internal/routing"
	"countryrank/internal/topology"
)

// TestChaosSoak is the end-to-end fault drill: several vantage points feed a
// live collector over transports that reset, truncate, fragment, and delay,
// and the collection rebuilt from the collector's tables must be
// byte-identical to a fault-free run — with the fault handling provably
// exercised (reconnects and resumes observed). Run it under -race; the
// collector's supervision and the feeders' retries are all concurrent.
func TestChaosSoak(t *testing.T) {
	// Sample the collector counters while the soak runs, so the assertions
	// below can check fault handling *over time* (a timeline), not just at
	// exit — and that /debug/timeline actually serves that history.
	tl := obs.NewTimeline(obs.Default, 2*time.Millisecond, 8192,
		"countryrank_collector_updates_applied_total",
		"countryrank_collector_feeder_retries_total",
		"countryrank_collector_resumed_sessions_total",
		"countryrank_collector_sessions_total")
	tl.Start()

	w := topology.Build(topology.Config{Seed: 5, StubScale: 0.1, VPScale: 0.1})
	col := routing.BuildCollection(w, routing.BuildOptions{
		LoopFrac: -1, PoisonFrac: -1, UnallocFrac: -1, UnstableFrac: -1,
	})

	// Pick VPs with enough routes that the early faults land mid-feed, but
	// few enough that the soak stays fast.
	counts := map[int32]int{}
	for _, r := range col.Records {
		counts[r.VP]++
	}
	var candidates []int32
	for v, n := range counts {
		if n >= 30 && n <= 500 {
			candidates = append(candidates, v)
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	if len(candidates) > 4 {
		candidates = candidates[:4]
	}
	if len(candidates) < 2 {
		t.Skip("world too small for the soak")
	}

	// The fault-free reference: apply each VP's exact update sequence to a
	// fresh table, no network involved.
	ref := map[int32]*bgpsession.Table{}
	for _, v := range candidates {
		tab := bgpsession.NewTable()
		for _, u := range routing.UpdatesForVP(col, v) {
			tab.Apply(u)
		}
		ref[v] = tab
	}
	want := routing.CollectionFromTables(col, ref)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := Serve(ln, Config{
		AS: 6447, BGPID: netip.AddrFrom4([4]byte{10, 255, 0, 1}),
		HoldTime: 30 * time.Second, HandshakeTimeout: 10 * time.Second,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// chaosDial degrades over attempts: a mid-feed reset, then a truncation
	// that lies about delivery, then a merely hostile transport (fragmented,
	// delayed writes), then clean. No silent corruption: corrupted bytes
	// would break the byte-identical guarantee rather than test it — that
	// failure mode belongs to the MRT resync path, not the session layer.
	chaosDial := func(vpIdx int32) func(ctx context.Context) (net.Conn, error) {
		attempt := 0
		return func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", ln.Addr().String())
			if err != nil {
				return nil, err
			}
			attempt++
			switch attempt {
			case 1:
				return faultnet.Wrap(conn, faultnet.Config{
					Seed:     int64(vpIdx),
					Schedule: []faultnet.Fault{{AtByte: 900, Kind: faultnet.Reset}},
				}), nil
			case 2:
				return faultnet.Wrap(conn, faultnet.Config{
					Seed:     int64(vpIdx) + 1,
					MaxWrite: 128,
					Schedule: []faultnet.Fault{{AtByte: 2500, Kind: faultnet.Truncate}},
				}), nil
			default:
				return faultnet.Wrap(conn, faultnet.Config{
					Seed:     int64(vpIdx) + 2,
					MaxWrite: 256,
					Latency:  20 * time.Microsecond,
					Jitter:   10 * time.Microsecond,
				}), nil
			}
		}
	}

	keyOf := func(i int, v int32) PeerKey {
		return PeerKey{
			AS:    w.VPs.VP(int(v)).AS,
			BGPID: netip.AddrFrom4([4]byte{10, 9, byte(i >> 8), byte(i)}),
		}
	}

	var (
		mu         sync.Mutex
		reconnects int
		resumed    int64
		wg         sync.WaitGroup
	)
	for i, v := range candidates {
		i, v := i, v
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := keyOf(i, v)
			stats, err := Feed(ctx, FeederConfig{
				Dial: chaosDial(v), AS: key.AS, BGPID: key.BGPID,
				HoldTime: 30 * time.Second, HandshakeTimeout: 10 * time.Second,
				MaxAttempts: 10, BaseBackoff: 5 * time.Millisecond,
				MaxBackoff: 50 * time.Millisecond, Seed: int64(v),
			}, routing.UpdatesForVP(col, v))
			if err != nil {
				t.Errorf("VP %d: feed: %v", v, err)
				return
			}
			mu.Lock()
			reconnects += stats.Reconnects
			resumed += stats.Resumed
			mu.Unlock()
		}()
	}
	wg.Wait()
	c.Close()
	if t.Failed() {
		return
	}

	// The faults must actually have bitten: a soak that never reconnects
	// proves nothing.
	if reconnects == 0 {
		t.Fatal("chaos soak saw zero reconnects")
	}
	if resumed == 0 {
		t.Fatal("chaos soak never resumed a partial feed")
	}

	// Every VP's feed must be complete at the collector...
	tables := c.Tables()
	got := map[int32]*bgpsession.Table{}
	for i, v := range candidates {
		key := keyOf(i, v)
		applied, complete := c.Complete(key)
		wantN := int64(counts[v])
		if !complete || applied != wantN {
			t.Fatalf("VP %d: applied %d, complete %v; want %d, true", v, applied, complete, wantN)
		}
		got[v] = tables[key]
	}

	// ...and the rebuilt collection byte-identical to the fault-free one.
	live := routing.CollectionFromTables(col, got)
	if !reflect.DeepEqual(live.Prefixes, want.Prefixes) ||
		!reflect.DeepEqual(live.Records, want.Records) ||
		!reflect.DeepEqual(live.Paths, want.Paths) ||
		!reflect.DeepEqual(live.Origin, want.Origin) ||
		!reflect.DeepEqual(live.Stable, want.Stable) {
		t.Fatalf("collection diverged under faults: %d/%d records, %d/%d prefixes, %d/%d paths",
			len(live.Records), len(want.Records),
			len(live.Prefixes), len(want.Prefixes),
			len(live.Paths), len(want.Paths))
	}

	st := c.Stats()
	t.Logf("soak: %d VPs, %d sessions, %d dropped, %d resumed sessions, %d reconnects, %d updates resumed, %d applied",
		len(candidates), st.Sessions, st.Dropped, st.ResumedSessions, reconnects, resumed, st.UpdatesApplied)

	// The timeline must show the reconnect/resume counters *moving during*
	// the soak: a final scrape proves totals, the series proves when.
	tl.Stop()
	srv := httptest.NewServer(obs.NewDebugMux(&obs.CmdFlags{Sources: obs.Sources{Timeline: tl}}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/timeline")
	if err != nil {
		t.Fatalf("/debug/timeline: %v", err)
	}
	defer resp.Body.Close()
	var data obs.TimelineData
	if err := json.NewDecoder(resp.Body).Decode(&data); err != nil {
		t.Fatalf("/debug/timeline decode: %v", err)
	}
	if len(data.OffsetsMS) < 2 {
		t.Fatalf("/debug/timeline served %d samples, want a timeline", len(data.OffsetsMS))
	}
	// Counters are process-global, so assert on deltas within the window:
	// the soak's own applied updates, retries, and resumed sessions must
	// all have risen between the baseline sample and the final one.
	for _, name := range []string{
		"countryrank_collector_updates_applied_total",
		"countryrank_collector_feeder_retries_total",
		"countryrank_collector_resumed_sessions_total",
	} {
		series, ok := data.Series[name]
		if !ok || len(series) != len(data.OffsetsMS) {
			t.Fatalf("/debug/timeline series %s missing or misaligned", name)
		}
		if delta := series[len(series)-1] - series[0]; delta <= 0 {
			t.Errorf("timeline shows no movement in %s during the soak (delta %v)", name, delta)
		}
	}
	// And the movement must be gradual, not a single end-of-run jump: the
	// applied counter has to be strictly between its endpoints somewhere.
	applied := data.Series["countryrank_collector_updates_applied_total"]
	first, last := applied[0], applied[len(applied)-1]
	gradual := false
	for _, v := range applied {
		if v > first && v < last {
			gradual = true
			break
		}
	}
	if !gradual {
		t.Errorf("applied-updates timeline jumped %v -> %v with no intermediate samples", first, last)
	}
	if sp := tl.Sparkline(); !strings.Contains(sp, "countryrank_collector_updates_applied_total") {
		t.Errorf("sparkline summary missing applied series:\n%s", sp)
	}
}
