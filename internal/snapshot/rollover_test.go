package snapshot

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"countryrank/internal/asn"
	"countryrank/internal/rank"
)

// TestRolloverUnderLoad is the graceful-rollover torn-read test: N client
// goroutines hammer a live rankd-style server over real HTTP while the
// store swaps between two distinct snapshots. Every response must be
// internally consistent — its ETag and body both from the same snapshot —
// because a request resolves its entity from one atomic Load and an
// immutable snapshot; a mismatched pair would mean a torn read. After
// shutdown, no goroutines or file descriptors may leak.
//
// Run with -race: the detector turns any unsynchronized snapshot access
// into a hard failure even when the ETag/body assertion happens to pass.
func TestRolloverUnderLoad(t *testing.T) {
	snapA := Assemble(testData(1), Config{})
	d := testData(2)
	// Different AU content → different ETag and body (the epoch alone is
	// deliberately not part of the served bytes).
	d.Countries[0].CCI = rank.New("CCI AU", map[asn.ASN]float64{
		1221: 0.9, 4826: 0.05,
	}, testInfo, true)
	snapB := Assemble(d, Config{})
	if snapA.CountryETag("AU") == snapB.CountryETag("AU") {
		t.Fatal("test snapshots share an ETag; the assertion would be vacuous")
	}
	want := map[string]string{ // ETag → exact body, across both snapshots
		snapA.CountryETag("AU"): string(snapA.CountryBody("AU")),
		snapB.CountryETag("AU"): string(snapB.CountryBody("AU")),
	}

	beforeGoroutines := runtime.NumGoroutine()
	beforeFDs := countFDs(t)

	st := NewStore(snapA)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: NewHandler(st)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	const (
		clients  = 8
		duration = 300 * time.Millisecond
	)
	var (
		stop     atomic.Bool
		requests atomic.Int64
		wg       sync.WaitGroup
	)
	fail := make(chan string, clients)

	// Swapper: flip between the two snapshots as fast as possible.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur := snapA
		for !stop.Load() {
			if cur == snapA {
				cur = snapB
			} else {
				cur = snapA
			}
			st.Publish(cur, nil)
		}
	}()

	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			defer client.CloseIdleConnections()
			for !stop.Load() {
				resp, err := client.Get(base + "/v1/countries/AU")
				if err != nil {
					fail <- fmt.Sprintf("GET: %v", err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					fail <- fmt.Sprintf("read body: %v", err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					fail <- fmt.Sprintf("status %d", resp.StatusCode)
					return
				}
				etag := resp.Header.Get("ETag")
				wantBody, ok := want[etag]
				if !ok {
					fail <- fmt.Sprintf("ETag %q belongs to neither snapshot", etag)
					return
				}
				if string(body) != wantBody {
					fail <- fmt.Sprintf("torn read: ETag %q with body from the other snapshot", etag)
					return
				}
				requests.Add(1)
			}
		}()
	}

	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
	if n := requests.Load(); n == 0 {
		t.Error("no requests completed")
	} else {
		t.Logf("%d consistent responses across rollovers", n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}

	// Everything the server and clients spawned must unwind, and the
	// listener plus every connection must be closed.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= beforeGoroutines && countFDs(t) <= beforeFDs {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("leak after shutdown: goroutines %d -> %d, fds %d -> %d\n%s",
		beforeGoroutines, runtime.NumGoroutine(), beforeFDs, countFDs(t), buf[:n])
}

// TestSupervisorRolloverUnderLoad is the supervised twin of
// TestRolloverUnderLoad: rollovers come from the real publish path — a
// Supervisor triggered repeatedly, alternating between two builds — instead
// of a raw store swapper. Every response must still be internally
// consistent, and after Close + Shutdown nothing may leak: neither the
// serving machinery nor the supervisor's loop and build goroutines.
//
// Run with -race: it also exercises Trigger/publish/Load concurrency.
func TestSupervisorRolloverUnderLoad(t *testing.T) {
	d := testData(2)
	d.Countries[0].CCI = rank.New("CCI AU", map[asn.ASN]float64{
		1221: 0.9, 4826: 0.05,
	}, testInfo, true)
	dataA, dataB := testData(1), d
	snapA := Assemble(dataA, Config{})
	snapB := Assemble(dataB, Config{})
	if snapA.CountryETag("AU") == snapB.CountryETag("AU") {
		t.Fatal("test snapshots share an ETag; the assertion would be vacuous")
	}
	want := map[string]string{
		snapA.CountryETag("AU"): string(snapA.CountryBody("AU")),
		snapB.CountryETag("AU"): string(snapB.CountryBody("AU")),
	}

	beforeGoroutines := runtime.NumGoroutine()
	beforeFDs := countFDs(t)

	st := NewStore(snapA)
	var flip atomic.Int64
	sup := NewSupervisor(st, SupervisorConfig{
		BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond, Seed: 3,
		Build: func(ctx context.Context, epoch int64) (*Snapshot, error) {
			data := dataA
			if flip.Add(1)%2 == 0 {
				data = dataB
			}
			data.Epoch = epoch
			return Assemble(data, Config{}), nil
		},
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: NewHandler(st)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	const (
		clients  = 8
		duration = 300 * time.Millisecond
	)
	var (
		stop     atomic.Bool
		requests atomic.Int64
		wg       sync.WaitGroup
	)
	fail := make(chan string, clients+1)

	// Trigger as fast as the supervisor can absorb; most calls coalesce.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			sup.Trigger("load test")
			time.Sleep(100 * time.Microsecond)
		}
	}()

	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			defer client.CloseIdleConnections()
			for !stop.Load() {
				resp, err := client.Get(base + "/v1/countries/AU")
				if err != nil {
					fail <- fmt.Sprintf("GET: %v", err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					fail <- fmt.Sprintf("status %d, read err %v", resp.StatusCode, err)
					return
				}
				etag := resp.Header.Get("ETag")
				wantBody, ok := want[etag]
				if !ok {
					fail <- fmt.Sprintf("ETag %q belongs to neither snapshot", etag)
					return
				}
				if string(body) != wantBody {
					fail <- fmt.Sprintf("torn read: ETag %q with body from the other snapshot", etag)
					return
				}
				requests.Add(1)
			}
		}()
	}

	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
	if requests.Load() == 0 {
		t.Error("no requests completed")
	}
	if st.Load().Epoch < 3 {
		t.Errorf("only %d supervised publishes during the load window", st.Load().Epoch-1)
	}
	t.Logf("%d consistent responses across %d supervised rollovers", requests.Load(), st.Load().Epoch-1)

	sup.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= beforeGoroutines && countFDs(t) <= beforeFDs {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("leak after shutdown: goroutines %d -> %d, fds %d -> %d\n%s",
		beforeGoroutines, runtime.NumGoroutine(), beforeFDs, countFDs(t), buf[:n])
}

// countFDs reports the number of open file descriptors, or -1 on platforms
// without /proc (the fd half of the leak check then trivially passes).
func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}
