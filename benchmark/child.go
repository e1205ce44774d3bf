package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The benchmark meets the system the way its users do: as four binaries.
// This is the whole CLI surface it depends on; a change that renames or
// drops one of these flags breaks the benchmark and must say so:
//
//	rankd       -addr -seed -scale -vpscale -snapshot-dir -seed-step
//	topogen     -seed -scale -vpscale -out
//	crank       -seed -scale -vpscale -mrt CC...
//	experiments -seed -scale -vpscale -only -trials
//	            (and its log line: msg="pipeline ready" … accepted=N)
//
// plus rankd's SIGHUP (rebuild), SIGTERM (drain), GET /v1/snapshot,
// /v1/countries/{cc}, /v1/top/{m}?n= and /debug/vars (memstats.Mallocs,
// countryrank_routing_records_built_total, countryrank_sanitize_accepted_total).

// world holds the sizes every workload keeps fixed. The benchmark runs W05
// and nothing else: at scale 1 identical runs differed by 2x in system time
// on the 2-core box this was written on, so scale 1 measures the host, not
// the program. Only the smoke test builds another (smaller) world.
type world struct {
	seed           int64
	scale, vpscale float64
}

var w05 = world{scale: 0.5, vpscale: 0.5}

func (w world) args() []string {
	return []string{
		"-seed", strconv.FormatInt(w.seed, 10),
		"-scale", strconv.FormatFloat(w.scale, 'g', -1, 64),
		"-vpscale", strconv.FormatFloat(w.vpscale, 'g', -1, 64),
	}
}

// buildBinaries compiles the named cmd/ packages into dir. The checkout is
// the working directory (the contract runs the benchmark from its root).
func buildBinaries(dir string, names ...string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	args := []string{"build", "-buildvcs=false", "-o", abs + string(filepath.Separator)}
	for _, n := range names {
		args = append(args, "./cmd/"+n)
	}
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build %v: %w\n%s", names, err, out)
	}
	return nil
}

// childRun is what the outside of a finished child process shows.
type childRun struct {
	wall   time.Duration
	cpu    time.Duration // user + system, from wait4
	rssMB  float64       // peak resident set, from wait4
	stdout []byte
	stderr []byte
}

// runChild runs one batch child to completion.
func runChild(path string, args ...string) (childRun, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(path, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	res := childRun{wall: time.Since(start), stdout: stdout.Bytes(), stderr: stderr.Bytes()}
	if cmd.ProcessState != nil {
		res.cpu, res.rssMB = usage(cmd.ProcessState)
	}
	if err != nil {
		return res, fmt.Errorf("%s: %w\n%s", filepath.Base(path), err, tail(stderr.Bytes(), 600))
	}
	return res, nil
}

// usage reads a finished child's CPU time and peak RSS. Linux folds the
// parent's own peak into a child's ru_maxrss at exec, so the figure is the
// child's only while this process stays smaller than the child: every
// untraced run is its own small process for that reason.
func usage(ps *os.ProcessState) (cpu time.Duration, rssMB float64) {
	cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return cpu, rssMB
}

func tail(b []byte, n int) string {
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return string(b)
}

// snapshotMeta is the part of GET /v1/snapshot the benchmark reads.
type snapshotMeta struct {
	Epoch     int64    `json:"epoch"`
	Digest    string   `json:"digest"`
	Stale     bool     `json:"stale"`
	Tops      []string `json:"tops"`
	Countries []string `json:"countries"`
}

// rankd is one running daemon child.
type rankd struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	// startMS is exec → first 200 on /v1/snapshot.
	startMS float64
	first   snapshotMeta
}

const (
	pollEvery    = 10 * time.Millisecond
	epochTimeout = 30 * time.Second
)

var pollClient = &http.Client{Timeout: 5 * time.Second}

// startRankd execs the daemon on a free loopback port with persistence,
// the history ring and drift all live (-snapshot-dir) and content that
// changes every epoch (-seed-step 1), and waits for its first answer.
func startRankd(bin string, w world, snapDir string) (*rankd, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	args := append([]string{"-addr", addr}, w.args()...)
	args = append(args, "-snapshot-dir", snapDir, "-seed-step", "1")
	r := &rankd{base: "http://" + addr}
	r.cmd = exec.Command(filepath.Join(bin, "rankd"), args...)
	r.cmd.Stderr = &r.stderr
	start := time.Now()
	if err := r.cmd.Start(); err != nil {
		return nil, err
	}
	for {
		m, err := r.meta()
		if err == nil {
			r.first = m
			r.startMS = float64(time.Since(start)) / float64(time.Millisecond)
			return r, nil
		}
		if time.Since(start) > epochTimeout {
			r.stop()
			return nil, fmt.Errorf("rankd did not answer within %s: %v\n%s", epochTimeout, err, tail(r.stderr.Bytes(), 600))
		}
		time.Sleep(pollEvery)
	}
}

func (r *rankd) meta() (snapshotMeta, error) {
	var m snapshotMeta
	resp, err := pollClient.Get(r.base + "/v1/snapshot")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return m, fmt.Errorf("/v1/snapshot: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&m)
	return m, err
}

// rollover asks for a rebuild and waits until an epoch after `after`
// answers at /v1/snapshot.
func (r *rankd) rollover(after int64) (snapshotMeta, time.Duration, error) {
	if err := r.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		return snapshotMeta{}, 0, err
	}
	return r.awaitEpoch(after)
}

// awaitEpoch polls /v1/snapshot until an epoch after `after` answers.
func (r *rankd) awaitEpoch(after int64) (snapshotMeta, time.Duration, error) {
	start := time.Now()
	for {
		m, err := r.meta()
		if err == nil && m.Epoch > after {
			return m, time.Since(start), nil
		}
		if time.Since(start) > epochTimeout {
			return m, time.Since(start), fmt.Errorf("epoch %d not served within %s (last error: %v)", after+1, epochTimeout, err)
		}
		time.Sleep(pollEvery)
	}
}

// cpuSeconds reads the daemon's user+system CPU time so far from
// /proc/<pid>/stat (fields 14 and 15, in 100 Hz ticks on Linux).
func (r *rankd) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", r.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, errors.New("unexpected /proc/<pid>/stat layout")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / 100, nil
}

// counters is what the benchmark reads of the daemon's own counting, all
// cumulative since exec: heap objects allocated (it repeats exactly where
// wall-clock serving numbers do not), and RIB records built and accepted,
// the one quantity visible from outside that grows with the world.
type counters struct {
	mallocs, records, accepted uint64
}

// counters scrapes expvar, the one endpoint of the program's own counters
// the benchmark allows itself.
func (r *rankd) counters() (counters, error) {
	resp, err := pollClient.Get(r.base + "/debug/vars")
	if err != nil {
		return counters{}, err
	}
	defer resp.Body.Close()
	var vars struct {
		Memstats    struct{ Mallocs uint64 } `json:"memstats"`
		Countryrank struct {
			Records  *uint64 `json:"countryrank_routing_records_built_total"`
			Accepted *uint64 `json:"countryrank_sanitize_accepted_total"`
		} `json:"countryrank"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return counters{}, fmt.Errorf("/debug/vars: %w", err)
	}
	if vars.Countryrank.Records == nil || vars.Countryrank.Accepted == nil {
		return counters{}, errors.New("/debug/vars has no countryrank_routing_records_built_total or countryrank_sanitize_accepted_total")
	}
	return counters{vars.Memstats.Mallocs, *vars.Countryrank.Records, *vars.Countryrank.Accepted}, nil
}

// stop drains the daemon with SIGTERM, waits for it to end, and returns
// its peak RSS. A daemon that exits non-zero is a failed operation.
func (r *rankd) stop() (rssMB float64, err error) {
	_ = r.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- r.cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(15 * time.Second):
		_ = r.cmd.Process.Kill()
		<-done
		err = errors.New("rankd ignored SIGTERM for 15s; killed")
	}
	if r.cmd.ProcessState != nil {
		_, rssMB = usage(r.cmd.ProcessState)
	}
	if err != nil {
		err = fmt.Errorf("rankd exit: %w\n%s", err, tail(r.stderr.Bytes(), 600))
	}
	return rssMB, err
}
