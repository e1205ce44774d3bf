package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// nullServerEnv, when set to "ADDR BYTES", turns this binary into a
// net/http server that answers every path with one fixed body under
// rankd's headers (its SHA-256 as ETag included, so the client's oracles
// hold): what rankd would cost if its handler cost nothing. The traced serve_steady run
// re-executes itself this way; an environment variable (not a flag) so the
// test binary can play the part too.
const nullServerEnv = "COUNTRYRANK_BENCH_NULLSERVER"

func nullServer(spec string) {
	addr, size, _ := strings.Cut(spec, " ")
	n, err := strconv.Atoi(size)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s=%q: %v\n", nullServerEnv, spec, err)
		os.Exit(2)
	}
	body := bytes.Repeat([]byte("x"), n)
	length := strconv.Itoa(n)
	sum := sha256.Sum256(body)
	etag := `"` + hex.EncodeToString(sum[:]) + `"`
	err = http.ListenAndServe(addr, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", length)
		w.Header().Set("ETag", etag)
		_, _ = w.Write(body) // a client that hung up is the client's failure to count
	}))
	fmt.Fprintln(os.Stderr, "benchmark: null server:", err)
	os.Exit(1)
}

type nullProc struct {
	cmd  *exec.Cmd
	base string
}

func startNullServer(bodyBytes int) (*nullProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	n := &nullProc{cmd: exec.Command(self), base: "http://" + addr}
	n.cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s %d", nullServerEnv, addr, bodyBytes))
	if err := n.cmd.Start(); err != nil {
		return nil, err
	}
	for start := time.Now(); ; time.Sleep(pollEvery) {
		resp, err := pollClient.Get(n.base + "/")
		if err == nil {
			resp.Body.Close()
			return n, nil
		}
		if time.Since(start) > 10*time.Second {
			n.stop()
			return nil, fmt.Errorf("null server did not answer: %w", err)
		}
	}
}

func (n *nullProc) stop() {
	_ = n.cmd.Process.Signal(syscall.SIGKILL) // it holds no state worth draining
	_ = n.cmd.Wait()
}
