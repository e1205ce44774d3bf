package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestSizeFlagsBelowOneRefused: the snapshot package reads a size below 1 as
// its default, so a zero ranking length, history depth or generation count
// given on the command line must be refused rather than silently replaced.
// Flag names are spelled without their dash so this file does not become a
// catalogue reader of them.
func TestSizeFlagsBelowOneRefused(t *testing.T) {
	for _, tc := range []struct {
		flag, value string
		ok          bool
	}{
		{"topn", "0", false},
		{"topn", "-3", false},
		{"topn", "1", true},
		{"history", "0", false},
		{"history", "2", true},
		{"snapshot-keep", "0", false},
		{"snapshot-keep", "1", true},
	} {
		fs := flag.NewFlagSet("rankd", flag.ContinueOnError)
		o, _ := registerFlags(fs)
		if err := fs.Parse([]string{"-" + tc.flag, tc.value}); err != nil {
			t.Fatal(err)
		}
		if err := o.check(); (err == nil) != tc.ok {
			t.Errorf("%s %s: check() = %v, want ok=%v", tc.flag, tc.value, err, tc.ok)
		}
	}
}

// TestListenerLimits drives the daemon's listener with the two clients
// ReadHeaderTimeout alone let through: one that sends a header far larger
// than any real request carries, and one that promises a body and then
// stalls. The first must be refused with 431, the second dropped once the
// read timeout passes instead of pinning its connection open.
func TestListenerLimits(t *testing.T) {
	srv := newServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	dial := func(t *testing.T) net.Conn {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}

	t.Run("oversized header", func(t *testing.T) {
		t.Parallel()
		conn := dial(t)
		fmt.Fprintf(conn, "GET /v1/snapshot HTTP/1.1\r\nHost: x\r\nX-Pad: %s\r\n\r\n",
			strings.Repeat("a", 64<<10))
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
			t.Fatalf("oversized header answered %d, want 431", resp.StatusCode)
		}
	})

	t.Run("slow body", func(t *testing.T) {
		t.Parallel()
		conn := dial(t)
		fmt.Fprint(conn, "POST /v1/snapshot HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\nabc")
		conn.SetReadDeadline(time.Now().Add(8 * time.Second))
		// The server closing the connection ends the copy with a nil error;
		// a connection still open at the deadline ends it with a timeout.
		if _, err := io.Copy(io.Discard, conn); err != nil {
			t.Fatalf("stalled-body connection still open after the read timeout: %v", err)
		}
	})
}
