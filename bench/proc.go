package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/wire"
)

// serverProc is one spawned rtserve.
type serverProc struct {
	cmd      *exec.Cmd
	wireAddr string
	walDir   string
	logMu    sync.Mutex
	log      strings.Builder
	logDone  chan struct{}
}

// children are the rtserve processes alive right now, so that a signal
// to the benchmark does not leave one behind.
var children = struct {
	sync.Mutex
	m map[*serverProc]bool
}{m: map[*serverProc]bool{}}

func trackChild(p *serverProc, alive bool) {
	children.Lock()
	defer children.Unlock()
	if alive {
		children.m[p] = true
	} else {
		delete(children.m, p)
	}
}

// killChildren kills every rtserve still running and removes its WAL
// directory.
func killChildren() {
	children.Lock()
	defer children.Unlock()
	for p := range children.m {
		p.cmd.Process.Kill()
		p.cmd.Process.Wait() // reap it; an error means terminate's Wait already did
		if p.walDir != "" {
			os.RemoveAll(p.walDir)
		}
	}
}

// spawnServer starts rtserve for the workload on free loopback ports
// and returns once it has announced its wire address.
func spawnServer(bin, outDir string, w *workloadSpec) (*serverProc, error) {
	args := append(w.serverFlags(), "-addr", "127.0.0.1:0", "-wire-addr", "127.0.0.1:0")
	p := &serverProc{logDone: make(chan struct{})}
	if w.WAL {
		dir, err := os.MkdirTemp(outDir, "wal-"+w.Name+"-")
		if err != nil {
			return nil, err
		}
		p.walDir = dir
		args = append(args, "-wal-dir", dir, "-wal-sync", "0")
	}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", serverProcs))
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	trackChild(p, true)
	addr := make(chan string, 1)
	go func() {
		defer close(p.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.logMu.Lock()
			p.log.WriteString(line + "\n")
			p.logMu.Unlock()
			if _, a, ok := strings.Cut(line, "wire protocol on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	select {
	case p.wireAddr = <-addr:
		return p, nil
	case <-p.logDone:
	case <-time.After(20 * time.Second):
	}
	p.kill()
	return nil, fmt.Errorf("rtserve did not announce a wire address:\n%s", p.logText())
}

func (p *serverProc) logText() string {
	p.logMu.Lock()
	defer p.logMu.Unlock()
	return p.log.String()
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// terminate sends SIGTERM and requires a clean exit.
func (p *serverProc) terminate() error {
	defer p.cleanup()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { <-p.logDone; done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("rtserve after SIGTERM: %w\n%s", err, p.logText())
		}
		return nil
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		<-done
		return errors.New("rtserve did not exit within 30s of SIGTERM")
	}
}

func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	<-p.logDone
	p.cmd.Wait()
	p.cleanup()
}

func (p *serverProc) cleanup() {
	trackChild(p, false)
	if p.walDir != "" {
		os.RemoveAll(p.walDir)
	}
}

// --- /proc ---------------------------------------------------------------

// procSample is the server's CPU time and context switches so far.
type procSample struct {
	at    time.Time
	cpu   time.Duration // time on a CPU, all threads
	ctxsw int64         // voluntary + involuntary, all threads
}

func sampleProc(pid int) (procSample, error) {
	s := procSample{at: time.Now()}
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*", pid))
	if err != nil || len(tasks) == 0 {
		return s, fmt.Errorf("/proc/%d/task: no threads (%v)", pid, err)
	}
	for _, t := range tasks {
		// A thread may exit between the glob and the reads; Go's threads
		// practically never do.
		s.ctxsw += statusField(t+"/status", "voluntary_ctxt_switches:") + statusField(t+"/status", "nonvoluntary_ctxt_switches:")
		// schedstat's first field is the thread's time on a CPU in
		// nanoseconds, exact where utime/stime in stat are sampled at
		// the scheduler tick.
		b, err := os.ReadFile(t + "/schedstat")
		if err != nil {
			continue
		}
		if f := strings.Fields(string(b)); len(f) > 0 {
			ns, _ := strconv.ParseInt(f[0], 10, 64)
			s.cpu += time.Duration(ns)
		}
	}
	return s, nil
}

// statusField reads one numeric field of a /proc status file; 0 if absent.
func statusField(path, key string) int64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			v, _ := strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
			return v
		}
	}
	return 0
}

// --- control connection ----------------------------------------------------

// ctlConn is the synchronous control connection: health, metrics, and
// owner of the parked backlog (closing it wounds the backlog).
type ctlConn struct {
	nc   net.Conn
	fr   *wire.FrameReader
	next int
}

func dialCtl(addr string) (*ctlConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &ctlConn{nc: nc, fr: wire.NewFrameReader(nc, 0)}, nil
}

// roundTrip writes frames and reads until the answer to id arrives.
func (c *ctlConn) roundTrip(frames []byte, id uint64) (wire.Header, []byte, error) {
	c.nc.SetDeadline(time.Now().Add(20 * time.Second))
	if _, err := c.nc.Write(frames); err != nil {
		return wire.Header{}, nil, err
	}
	for {
		h, p, err := c.fr.Next()
		if err != nil || h.ID == id {
			return h, p, err
		}
	}
}

func (c *ctlConn) nextID() uint64 {
	c.next++
	return makeID(phaseCtl, 0xff, c.next)
}

func (c *ctlConn) health() error {
	id := c.nextID()
	h, p, err := c.roundTrip(wire.AppendHealthReq(nil, id), id)
	if err != nil {
		return err
	}
	var hr wire.HealthResp
	if h.Type != wire.FrameHealthResp || wire.DecodeHealthResp(p, &hr) != nil || !hr.Healthy {
		return fmt.Errorf("unhealthy: type %#x %q", h.Type, hr.Err)
	}
	return nil
}

// serverMetrics is the part of the wire metrics frame the benchmark
// reads (server.MetricsResponse).
type serverMetrics struct {
	Engine struct {
		Committed      int     `json:"committed"`
		Dropped        int     `json:"dropped"`
		MissPercent    float64 `json:"miss_percent"`
		Restarts       int     `json:"restarts"`
		CPUUtilization float64 `json:"cpu_utilization"`
		AvgPListSize   float64 `json:"avg_plist_size"`
		AvgLiveTxns    float64 `json:"avg_live_txns"`
		ElapsedNs      float64 `json:"elapsed_ns"`
	} `json:"engine"`
	Live int `json:"live"`
	Wire struct {
		Submits   int64 `json:"submits"`
		Shed      int64 `json:"shed"`
		BadFrames int64 `json:"bad_frames"`
	} `json:"wire"`
	WAL *struct {
		Submits  uint64 `json:"submits"`
		Outcomes uint64 `json:"outcomes"`
		Syncs    uint64 `json:"syncs"`
		Bytes    uint64 `json:"bytes"`
	} `json:"wal"`
	at time.Time
}

func (c *ctlConn) metrics() (*serverMetrics, error) {
	id := c.nextID()
	h, p, err := c.roundTrip(wire.AppendMetricsReq(nil, id), id)
	if err != nil {
		return nil, err
	}
	if h.Type != wire.FrameMetricsResp {
		return nil, fmt.Errorf("metrics: frame type %#x: %s", h.Type, p)
	}
	m := &serverMetrics{at: time.Now()}
	if err := json.Unmarshal(p, m); err != nil {
		return nil, fmt.Errorf("metrics frame: %w", err)
	}
	return m, nil
}

// park submits the standing backlog and returns once all of it is
// live. The parked transactions never answer, so a short sentinel
// follows them: connection, batcher queue and batch injection are all
// FIFO, so its commit proves every parked transaction was injected.
func (c *ctlConn) park(w *workloadSpec) error {
	r := newRNG(0, 0)
	req := genRequest(w, r, w.Shards, false)
	id := c.nextID()
	h, p, err := c.roundTrip(wire.AppendSubmit(genParked(w), id, &req), id)
	if err != nil {
		return err
	}
	var resp wire.SubmitResp
	if h.Type != wire.FrameSubmitResp || wire.DecodeSubmitResp(p, &resp) != nil || resp.Status != wire.StatusCommitted {
		return fmt.Errorf("park sentinel: type %#x status %d %q", h.Type, resp.Status, resp.Err)
	}
	m, err := c.metrics()
	if err != nil {
		return err
	}
	if m.Live < w.Parked {
		return fmt.Errorf("parked backlog: %d live, want %d", m.Live, w.Parked)
	}
	return nil
}

func (c *ctlConn) close() { c.nc.Close() }
