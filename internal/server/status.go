// The status port: what rtserve's -addr serves beside the wire protocol,
// for probes, curl and `go tool pprof`. It answers GET /healthz, GET
// /metrics and the runtime's profiles under /debug/pprof/, and nothing
// else: one request per connection, answered with Connection: close; a
// request head of at most maxStatusHead bytes; one fixed deadline for
// reading the head and another for writing the answer; no request bodies,
// no keep-alive, no chunking. A panic answers 500 on its own connection.
// It is built on net and bufio, so the server links no HTTP stack.
package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	// maxStatusHead bounds a request line plus its headers.
	maxStatusHead = 8 << 10
	// statusDeadline bounds reading a request head, and again writing its
	// answer; a CPU profile's seconds run between the two.
	statusDeadline = 10 * time.Second
	// maxProfileSeconds caps /debug/pprof/profile?seconds=N.
	maxProfileSeconds = 60

	textPlain = "text/plain; charset=utf-8"
	octets    = "application/octet-stream"
)

var statusText = map[int]string{
	200: "OK",
	400: "Bad Request",
	404: "Not Found",
	405: "Method Not Allowed",
	409: "Conflict",
	431: "Request Header Fields Too Large",
	500: "Internal Server Error",
	503: "Service Unavailable",
}

var (
	errHeadTooLarge = errors.New("request head too large")
	errBadRequest   = errors.New("malformed request line")
)

// statusHandler answers one GET of path with the raw query (the target
// after its '?'). stop closes when the port shuts down; a handler that
// waits (a CPU profile) returns early on it.
type statusHandler func(path, query string, stop <-chan struct{}) (code int, ctype string, body []byte)

// statusPort serves one listener with a statusHandler.
type statusPort struct {
	ln     net.Listener
	handle statusHandler
	done   chan struct{} // closed by shutdown

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

func newStatusPort(ln net.Listener, h statusHandler) *statusPort {
	return &statusPort{ln: ln, handle: h, done: make(chan struct{}), conns: make(map[net.Conn]struct{})}
}

// serve accepts until shutdown, which makes it return nil; any other
// accept error is returned.
func (p *statusPort) serve() error {
	for {
		c, err := p.ln.Accept()
		p.mu.Lock()
		select {
		case <-p.done:
			p.mu.Unlock()
			if c != nil {
				c.Close()
			}
			return nil
		default:
		}
		if err != nil {
			p.mu.Unlock()
			return err
		}
		p.conns[c] = struct{}{}
		p.wg.Add(1)
		p.mu.Unlock()
		go p.serveConn(c)
	}
}

// shutdown stops accepting, cuts every open connection (a profile in
// progress ends early) and waits for their goroutines.
func (p *statusPort) shutdown() {
	p.mu.Lock()
	close(p.done)
	p.ln.Close()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *statusPort) serveConn(c net.Conn) {
	defer p.wg.Done()
	defer func() {
		p.mu.Lock()
		delete(p.conns, c)
		p.mu.Unlock()
		c.Close()
	}()
	defer func() {
		if v := recover(); v != nil {
			// The panic stays with this request: the service and every
			// other connection keep running.
			writeAnswer(c, 500, textPlain, fmt.Appendf(nil, "internal error: %v\n", v))
		}
	}()
	c.SetDeadline(time.Now().Add(statusDeadline))
	method, target, err := readHead(bufio.NewReaderSize(c, maxStatusHead))
	code, ctype, body := 400, textPlain, []byte("bad request\n")
	switch {
	case errors.Is(err, errHeadTooLarge):
		code, body = 431, []byte("request head too large\n")
	case errors.Is(err, errBadRequest):
	case err != nil:
		return // the client left, or stalled, before its head ended
	case method != "GET":
		code, body = 405, []byte("GET only\n")
	default:
		path, query, _ := strings.Cut(target, "?")
		code, ctype, body = p.handle(path, query, p.done)
	}
	c.SetDeadline(time.Now().Add(statusDeadline))
	writeAnswer(c, code, ctype, body)
	// Half-close and drain what the client still sends, so unread request
	// bytes do not turn the close into a reset that discards the answer.
	if tc, ok := c.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	io.Copy(io.Discard, io.LimitReader(c, maxStatusHead))
}

// readHead reads a request line and its headers, at most maxStatusHead
// bytes, and returns the method and the request target. The headers are
// skipped: no request has a body, and every connection closes after its
// answer.
func readHead(r *bufio.Reader) (method, target string, err error) {
	n := 0
	for first := true; ; first = false {
		line, err := r.ReadSlice('\n')
		if n += len(line); n > maxStatusHead || errors.Is(err, bufio.ErrBufferFull) {
			return method, target, errHeadTooLarge
		}
		if err != nil {
			return method, target, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if !first {
			if len(line) == 0 {
				return method, target, nil
			}
			continue
		}
		f := strings.Fields(string(line))
		if len(f) != 3 || !strings.HasPrefix(f[2], "HTTP/1.") {
			return "", "", errBadRequest
		}
		method, target = f[0], f[1]
	}
}

// writeAnswer writes one complete HTTP/1.1 response.
func writeAnswer(w io.Writer, code int, ctype string, body []byte) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n",
		code, statusText[code], ctype, len(body))
	if code == 405 {
		b.WriteString("Allow: GET\r\n")
	}
	b.WriteString("\r\n")
	b.Write(body)
	w.Write(b.Bytes())
}

// status is the server's statusHandler.
func (s *Server) status(path, query string, stop <-chan struct{}) (int, string, []byte) {
	switch path {
	case "/healthz":
		if err := s.svc.Err(); err != nil {
			// An engine failure or a violated paper invariant (live
			// oracle): the server is no longer trustworthy and says so.
			return 503, textPlain, []byte("unhealthy: " + err.Error() + "\n")
		}
		// A degraded service is still healthy (200, "ok" prefix — probes
		// grep for it) but advertises that it survived an internal
		// failure. recovering=true means the startup replay of unresolved
		// WAL records is still running (new traffic is served meanwhile).
		return 200, textPlain, fmt.Appendf(nil, "ok draining=%v degraded=%v recovering=%v\n",
			s.svc.Draining(), s.svc.Degraded(), s.recovering.Load())
	case "/metrics":
		b, err := json.Marshal(s.metricsResponse())
		if err != nil {
			return 500, textPlain, []byte(err.Error() + "\n")
		}
		return 200, "application/json", append(b, '\n')
	}
	if name, ok := strings.CutPrefix(path, "/debug/pprof/"); ok {
		return profile(name, query, stop)
	}
	return 404, textPlain, []byte("404 page not found\n")
}

// profile answers /debug/pprof/<name>: a CPU profile of ?seconds=N
// (default 30) for "profile", and otherwise the named runtime profile
// (heap, goroutine, allocs, …), in the gzipped protocol-buffer form `go
// tool pprof` reads (?debug=N for the text forms).
func profile(name, query string, stop <-chan struct{}) (int, string, []byte) {
	var buf bytes.Buffer
	if name == "profile" {
		secs := 30
		if v := queryValue(query, "seconds"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 || n > maxProfileSeconds {
				return 400, textPlain, fmt.Appendf(nil, "seconds must be 1..%d\n", maxProfileSeconds)
			}
			secs = n
		}
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return 409, textPlain, []byte(err.Error() + "\n")
		}
		t := time.NewTimer(time.Duration(secs) * time.Second)
		select {
		case <-t.C:
		case <-stop:
			t.Stop()
		}
		pprof.StopCPUProfile()
		return 200, octets, buf.Bytes()
	}
	p := pprof.Lookup(name)
	if p == nil {
		return 404, textPlain, []byte("unknown profile\n")
	}
	debug, _ := strconv.Atoi(queryValue(query, "debug"))
	if err := p.WriteTo(&buf, debug); err != nil {
		return 500, textPlain, []byte(err.Error() + "\n")
	}
	if debug > 0 {
		return 200, textPlain, buf.Bytes()
	}
	return 200, octets, buf.Bytes()
}

// queryValue returns the first value of key in a raw query ("" if absent).
// The values this port reads are numbers, so nothing is unescaped.
func queryValue(query, key string) string {
	for query != "" {
		var kv string
		kv, query, _ = strings.Cut(query, "&")
		if k, v, _ := strings.Cut(kv, "="); k == key {
			return v
		}
	}
	return ""
}
