package main

import (
	"encoding/binary"
	"encoding/json"
	"net"
	"os"
	"sync"

	"repro/internal/wal"
	"repro/internal/wire"
)

// span is one timed interval of the traced run. Spans of one request
// share its correlation ID within one Run (one server lifetime; the
// traced stack is served twice); Parent names the span that caused this
// one. Times are nanoseconds since the benchmark process started.
type span struct {
	Name   string `json:"name"`
	Run    int    `json:"run,omitempty"`
	ID     uint64 `json:"id,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	run   int // stamped on every span added
	spans []span
}

func (r *recorder) add(s ...span) {
	r.mu.Lock()
	for i := range s {
		s[i].Run = r.run
	}
	r.spans = append(r.spans, s...)
	r.mu.Unlock()
}

// durations returns the length in microseconds of every span named name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// bytes sums the Bytes of every span named name.
func (r *recorder) bytes(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.spans {
		if s.Name == name {
			n += s.Bytes
		}
	}
	return n
}

func (r *recorder) write(path, workload string, seed int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// --- frame-stamping connection ---------------------------------------------

// stamp is the time a frame finished passing through a connection.
type stamp struct {
	id uint64
	at int64
}

// frameScanner follows the frame boundaries of one direction of a
// byte stream, however reads or writes split or coalesce the frames.
// It is used by one goroutine at a time, as a connection's read side
// and write side each are.
type frameScanner struct {
	hdr    [wire.HeaderLen]byte
	have   int // header bytes collected for the current frame
	body   int // payload bytes of the current frame still to come
	calls  int // reads or writes that moved at least one byte
	stamps []stamp
}

// scan consumes the bytes one call moved and stamps every frame whose
// last byte was among them with at.
func (s *frameScanner) scan(p []byte, at int64) {
	if len(p) == 0 {
		return
	}
	s.calls++
	for {
		if s.have < len(s.hdr) {
			n := copy(s.hdr[s.have:], p)
			s.have += n
			p = p[n:]
			if s.have < len(s.hdr) {
				return
			}
			// The length word covers the rest of the header and the payload.
			s.body = int(binary.LittleEndian.Uint32(s.hdr[:4])) - (len(s.hdr) - 4)
		}
		if s.body > len(p) {
			s.body -= len(p)
			return
		}
		p = p[s.body:]
		s.stamps = append(s.stamps, stamp{binary.LittleEndian.Uint64(s.hdr[idOffset:]), at})
		s.have, s.body = 0, 0
	}
}

// stampConn is the server's side of a wire connection in the traced
// run: it stamps, per correlation ID, "request frame read by the
// server" and "response frame written by the server".
type stampConn struct {
	net.Conn
	in, out frameScanner
}

func (c *stampConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.scan(p[:n], nanos())
	return n, err
}

func (c *stampConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.scan(p[:n], nanos())
	return n, err
}

// stampListener wraps every accepted connection in a stampConn.
type stampListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*stampConn
}

func (l *stampListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := &stampConn{Conn: nc}
	l.mu.Lock()
	l.conns = append(l.conns, c)
	l.mu.Unlock()
	return c, nil
}

// --- timed WAL filesystem ----------------------------------------------------

// timedFS decorates a wal.FS: every segment file's Write and Sync
// becomes a span.
type timedFS struct {
	wal.FS
	rec *recorder
}

func (fs timedFS) Create(name string) (wal.File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return timedFile{f, fs.rec}, nil
}

type timedFile struct {
	wal.File
	rec *recorder
}

func (f timedFile) Write(p []byte) (int, error) {
	t0 := nanos()
	n, err := f.File.Write(p)
	f.rec.add(span{Name: "wal.write", Start: t0, End: nanos(), Bytes: n})
	return n, err
}

func (f timedFile) Sync() error {
	t0 := nanos()
	err := f.File.Sync()
	f.rec.add(span{Name: "wal.fsync", Start: t0, End: nanos()})
	return err
}
