package routing

import (
	"bytes"
	"encoding/binary"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"countryrank/internal/bgp"
	"countryrank/internal/mrt"
	"countryrank/internal/topology"
)

// cleanStreams exports c as one TABLE_DUMP_V2 stream per collector.
func cleanStreams(t *testing.T, w *topology.World, c *Collection) [][]byte {
	t.Helper()
	var out [][]byte
	for _, coll := range w.VPs.Collectors() {
		var b bytes.Buffer
		if err := ExportMRT(&b, c, coll.Name, 1617235200); err != nil {
			t.Fatalf("export %s: %v", coll.Name, err)
		}
		out = append(out, b.Bytes())
	}
	if len(out) < 2 {
		t.Fatalf("%d collectors, want at least 2", len(out))
	}
	return out
}

// TestImportMRTCorruptRecordFails corrupts one record in the second of
// several collector streams: the import fails, and its error names that
// stream and what was wrong with the record.
func TestImportMRTCorruptRecordFails(t *testing.T) {
	w := testWorld(t)
	clean := cleanStreams(t, w, BuildCollection(w, BuildOptions{LoopFrac: -1, PoisonFrac: -1, UnallocFrac: -1}))

	// Blow up the length field of the second record (the first RIB record
	// after the peer index table) in the second stream.
	mut := bytes.Clone(clean[1])
	second := 12 + int(binary.BigEndian.Uint32(mut[8:]))
	if second+12 > len(mut) {
		t.Fatal("second stream has one record")
	}
	binary.BigEndian.PutUint32(mut[second+8:], 1<<30)
	var streams []io.Reader
	for i, b := range clean {
		if i == 1 {
			b = mut
		}
		streams = append(streams, bytes.NewReader(b))
	}
	_, _, err := ImportMRT(w, streams)
	if want := "stream 1: mrt: implausible record length 1073741824"; err == nil || err.Error() != want {
		t.Fatalf("import: %v, want %q", err, want)
	}
}

// TestImportMRTFilesNamesFailingDump truncates the second of two dumps
// mid-way: the error names the second file and not the first.
func TestImportMRTFilesNamesFailingDump(t *testing.T) {
	w := testWorld(t)
	clean := cleanStreams(t, w, BuildCollection(w, BuildOptions{}))
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "first.mrt"), filepath.Join(dir, "second.mrt")}
	for i, b := range [][]byte{clean[0], clean[1][:len(clean[1])/2]} {
		if err := os.WriteFile(paths[i], b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := ImportMRTFiles(w, paths, ImportOptions{})
	if err == nil || !strings.HasPrefix(err.Error(), paths[1]+": mrt: ") || strings.Contains(err.Error(), paths[0]) {
		t.Fatalf("import: %v, want an mrt error naming %s and not %s", err, paths[1], paths[0])
	}
}

// TestImportMRTRejectsBGP4MP pins what import does with an update record
// between two RIB records: it fails on the record's type.
func TestImportMRTRejectsBGP4MP(t *testing.T) {
	w := testWorld(t)
	coll := w.VPs.Collectors()[0]
	var peer mrt.Peer
	for i := 0; i < w.VPs.Len(); i++ {
		if v := w.VPs.VP(i); v.Collector == coll.Name {
			peer = mrt.Peer{BGPID: v.Addr, Addr: v.Addr, AS: v.AS}
			break
		}
	}
	// A BGP4MP_MESSAGE_AS4 record: type 16, subtype 4, a zeroed body.
	update := make([]byte, 12+40)
	binary.BigEndian.PutUint16(update[4:], 16)
	binary.BigEndian.PutUint16(update[6:], 4)
	binary.BigEndian.PutUint32(update[8:], 40)

	var buf bytes.Buffer
	mw := mrt.NewWriter(&buf, 1617235200)
	if err := mw.WritePeerIndexTable(coll.ID, coll.Name, []mrt.Peer{peer}); err != nil {
		t.Fatal(err)
	}
	for i, pfx := range []string{"203.0.113.0/24", "198.51.100.0/24"} {
		entries := []mrt.RIBEntry{{Attrs: bgp.AttrSet{ASPath: seq(bgp.Path{peer.AS, 64500})}}}
		if err := mw.WriteRIB(netip.MustParsePrefix(pfx), entries); err != nil {
			t.Fatal(err)
		}
		if err := mw.Flush(); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			buf.Write(update)
		}
	}
	_, _, err := ImportMRT(w, []io.Reader{bytes.NewReader(buf.Bytes())})
	if want := "stream 0: mrt: unsupported record type 16"; err == nil || err.Error() != want {
		t.Fatalf("import: %v, want %q", err, want)
	}
}

// byteCounter counts the bytes read through it. Its first read waits for
// gate to close, then a little longer: time for the stream that closed it to
// fail.
type byteCounter struct {
	r    io.Reader
	gate <-chan struct{}
	n    int
}

func (c *byteCounter) Read(p []byte) (int, error) {
	if c.gate != nil {
		select {
		case <-c.gate:
			time.Sleep(10 * time.Millisecond)
		case <-time.After(5 * time.Second):
		}
		c.gate = nil
	}
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// eofCloser closes done when its reader reports io.EOF.
type eofCloser struct {
	r    io.Reader
	done chan struct{}
}

func (e *eofCloser) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err == io.EOF && e.done != nil {
		close(e.done)
		e.done = nil
	}
	return n, err
}

// TestImportMRTStopsAfterFailingDump truncates the first stream inside its
// first RIB record and counts what the import reads of the others. With one
// decode worker they are never read. With two, the other worker starts on
// the second stream beside the failing one; its reads wait until the first
// stream has been read to its end, and it stops at its next record, so less
// than one stream is read in all. The error is the first stream's either way.
func TestImportMRTStopsAfterFailingDump(t *testing.T) {
	w := testWorld(t)
	clean := cleanStreams(t, w, BuildCollection(w, BuildOptions{}))
	first := 12 + int(binary.BigEndian.Uint32(clean[0][8:])) // the peer index table
	cut := clean[0][:first+20]
	largest := 0
	for _, b := range clean[1:] {
		largest = max(largest, len(b))
	}
	if largest < 1<<14 {
		t.Fatalf("the largest stream is %d bytes, too few to tell a stop from a buffered read", largest)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		gate := make(chan struct{})
		streams := []io.Reader{&eofCloser{r: bytes.NewReader(cut), done: gate}}
		var rest []*byteCounter
		for _, b := range clean[1:] {
			c := &byteCounter{r: bytes.NewReader(b), gate: gate}
			rest = append(rest, c)
			streams = append(streams, c)
		}
		_, _, err := ImportMRT(w, streams)
		if want := "stream 0: mrt: body: unexpected EOF"; err == nil || err.Error() != want {
			t.Fatalf("GOMAXPROCS=%d: import: %v, want %q", procs, err, want)
		}
		read := 0
		for _, c := range rest {
			read += c.n
		}
		if procs == 1 && read != 0 || read >= largest {
			t.Errorf("GOMAXPROCS=%d: read %d bytes of streams 1..%d (the largest is %d bytes)", procs, read, len(rest), largest)
		}
	}
}
