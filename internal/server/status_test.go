package server

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// gzipMagic starts every profile `go tool pprof` reads.
var gzipMagic = []byte{0x1f, 0x8b}

// rawRequest writes head to the status port at addr and returns the status
// line of the answer, or "" if the port closed without one.
func rawRequest(t *testing.T, addr, head string) string {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(nc, head); err != nil {
		t.Fatal(err)
	}
	line, _ := bufio.NewReader(nc).ReadString('\n')
	return strings.TrimSpace(line)
}

// TestStatusPortProfiles: the heap profile and a one-second CPU profile come
// back as the gzipped protocol buffers `go tool pprof` reads, and a CPU
// profile asked for while another runs is refused with 409.
func TestStatusPortProfiles(t *testing.T) {
	_, base, _, _ := startServer(t, Options{Core: core.MainMemoryConfig(core.CCA, 13)})
	for _, path := range []string{"/debug/pprof/heap", "/debug/pprof/profile?seconds=1"} {
		code, body := get(t, base+path)
		if code != http.StatusOK || !bytes.HasPrefix([]byte(body), gzipMagic) {
			t.Fatalf("GET %s: %d, body starts %q; want 200 and the gzip magic", path, code, body[:min(len(body), 8)])
		}
	}
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/nosuch", "/debug/pprof/profile?seconds=0", "/debug/pprof/profile?seconds=x"} {
		if code, _ := get(t, base+path); code != http.StatusNotFound && code != http.StatusBadRequest {
			t.Fatalf("GET %s: %d, want 404 or 400", path, code)
		}
	}

	// A CPU profile already running: the port's is a second one.
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, base+"/debug/pprof/profile?seconds=1")
	pprof.StopCPUProfile()
	if code != http.StatusConflict {
		t.Fatalf("second CPU profile: %d %q, want 409", code, body)
	}
}

// TestStatusPortHead: a request head over maxStatusHead bytes is refused
// with 431 and a malformed request line with 400; a well-formed request
// after either is served.
func TestStatusPortHead(t *testing.T) {
	_, base, _, _ := startServer(t, Options{Core: core.MainMemoryConfig(core.CCA, 14)})
	addr := strings.TrimPrefix(base, "http://")
	long := "GET /healthz HTTP/1.1\r\nX-Pad: " + strings.Repeat("a", maxStatusHead) + "\r\n\r\n"
	if got := rawRequest(t, addr, long); got != "HTTP/1.1 431 Request Header Fields Too Large" {
		t.Fatalf("oversized head answered %q, want 431", got)
	}
	many := "GET /healthz HTTP/1.1\r\n" + strings.Repeat("X-Pad: a\r\n", maxStatusHead/10+1) + "\r\n"
	if got := rawRequest(t, addr, many); got != "HTTP/1.1 431 Request Header Fields Too Large" {
		t.Fatalf("head of many short lines answered %q, want 431", got)
	}
	if got := rawRequest(t, addr, "hello\r\n\r\n"); got != "HTTP/1.1 400 Bad Request" {
		t.Fatalf("malformed request line answered %q, want 400", got)
	}
	if got := rawRequest(t, addr, "GET /healthz HTTP/1.0\r\n\r\n"); got != "HTTP/1.1 200 OK" {
		t.Fatalf("HTTP/1.0 GET answered %q, want 200", got)
	}
}

// TestStatusPortShutdownWithOpenConn: ServeListeners returns promptly while
// a status connection sits open mid-head and while a long CPU profile runs;
// both connections are closed.
func TestStatusPortShutdownWithOpenConn(t *testing.T) {
	_, base, _, stop := startServer(t, Options{Core: core.MainMemoryConfig(core.CCA, 15)})
	addr := strings.TrimPrefix(base, "http://")
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, err := io.WriteString(idle, "GET /healthz HTTP/1.1\r\n"); err != nil { // no blank line: the head never ends
		t.Fatal(err)
	}
	profiled := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/debug/pprof/profile?seconds=60")
		if err != nil {
			profiled <- 0
			return
		}
		resp.Body.Close()
		profiled <- resp.StatusCode
	}()
	time.Sleep(100 * time.Millisecond) // let both reach the port

	start := time.Now()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("ServeListeners took %v to return with status connections open", elapsed)
	}
	idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := idle.Read(make([]byte, 1)); err == nil {
		t.Fatalf("open status connection still readable after shutdown (%d bytes)", n)
	}
	select {
	case <-profiled:
	case <-time.After(5 * time.Second):
		t.Fatal("the CPU profile's client was never let go")
	}
}
