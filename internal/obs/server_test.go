package obs

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestDebugServerListenerLimits drives the debug listener with the two
// clients ReadHeaderTimeout alone let through: one that sends a header far
// larger than any real request carries, and one that promises a body and
// then stalls. The first must be refused with 431, the second dropped once
// the read timeout passes instead of pinning its connection open.
func TestDebugServerListenerLimits(t *testing.T) {
	f := newTestFlags(t, "-debug-addr", "127.0.0.1:0")
	f.Init()
	t.Cleanup(f.Done)
	addr := serverAddr(t, f)
	dial := func(t *testing.T) net.Conn {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}

	t.Run("oversized header", func(t *testing.T) {
		t.Parallel()
		conn := dial(t)
		fmt.Fprintf(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Pad: %s\r\n\r\n",
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
		fmt.Fprint(conn, "POST /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\nabc")
		conn.SetReadDeadline(time.Now().Add(8 * time.Second))
		// The server closing the connection ends the copy with a nil error;
		// a connection still open at the deadline ends it with a timeout.
		if _, err := io.Copy(io.Discard, conn); err != nil {
			t.Fatalf("stalled-body connection still open after the read timeout: %v", err)
		}
	})
}
