package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"time"

	"repro/internal/txn"
	"repro/internal/wire"
)

// rng is splitmix64: the stream depends on the seed alone, not on the
// Go release's math/rand.
type rng struct{ s uint64 }

func newRNG(seed int64, lane uint64) *rng {
	r := &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ lane*0xbf58476d1ce4e5b9}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
func (r *rng) exp() float64   { return -math.Log(1 - r.float()) }

// idOffset is where the correlation ID sits in an encoded frame.
const idOffset = wire.HeaderLen - 8

// stream is one connection's pre-encoded request material: the writer
// copies frame i%len and patches the correlation ID, so the send loop
// does no codec work and no allocation.
type stream struct {
	frames []byte
	off    []int32 // frame i is frames[off[i]:off[i+1]]
	reqs   []wire.SubmitReq
	cross  []bool // frame i touches both shards
}

func (s *stream) n() int { return len(s.off) - 1 }

func (s *stream) frame(i int) []byte {
	i %= s.n()
	return s.frames[s.off[i]:s.off[i+1]]
}

// appendFrame appends frame i with its correlation ID set.
func (s *stream) appendFrame(buf []byte, i int, id uint64) []byte {
	at := len(buf) + idOffset
	buf = append(buf, s.frame(i)...)
	binary.LittleEndian.PutUint64(buf[at:], id)
	return buf
}

// genRequest draws one foreground transaction. With shards > 1 the
// transaction is shard-aligned (every item on one shard) unless cross,
// in which case it is forced to touch both of the first two shards.
func genRequest(w *workloadSpec, r *rng, shards int, cross bool) wire.SubmitReq {
	home := 0
	if shards > 1 {
		home = r.intn(shards)
	}
	items := make([]txn.Item, 0, w.Items)
	draw := func(k int) txn.Item {
		res := home
		if cross {
			res = k % 2 // alternate residues: both shards are touched
		}
		for {
			var it int
			if w.HotItems > 0 && r.float() < w.HotProb {
				it = r.intn(w.HotItems)
			} else {
				it = w.ItemLo + r.intn(w.ItemHi-w.ItemLo)
			}
			if shards > 1 {
				it = it - it%shards + res
			}
			dup := false
			for _, have := range items {
				dup = dup || have == txn.Item(it)
			}
			if !dup && it < w.ItemHi {
				return txn.Item(it)
			}
		}
	}
	for k := 0; k < w.Items; k++ {
		items = append(items, draw(k))
	}
	// Ascending order: conflicting transactions take locks in one order.
	sort.Slice(items, func(a, b int) bool { return items[a] < items[b] })
	req := wire.SubmitReq{Items: items, Compute: w.Compute, Deadline: w.DeadlineLo}
	if w.DeadlineHi > w.DeadlineLo {
		req.Deadline += time.Duration(r.float() * float64(w.DeadlineHi-w.DeadlineLo))
	}
	if w.ReadProb > 0 {
		req.Reads = make([]bool, len(items))
		for k := range req.Reads {
			req.Reads[k] = r.float() < w.ReadProb
		}
	}
	return req
}

// genStream builds connection conn's request ring. crossShare > 0 mixes
// in transactions that touch both shards.
func genStream(w *workloadSpec, seed int64, conn int, crossShare float64) *stream {
	r := newRNG(seed, uint64(conn)+1)
	s := &stream{off: make([]int32, 1, streamFrames+1)}
	for i := 0; i < streamFrames; i++ {
		cross := crossShare > 0 && r.float() < crossShare
		req := genRequest(w, r, w.Shards, cross)
		s.frames = wire.AppendSubmit(s.frames, 0, &req)
		s.off = append(s.off, int32(len(s.frames)))
		s.reqs = append(s.reqs, req)
		s.cross = append(s.cross, cross)
	}
	return s
}

// genParked builds the standing backlog's submit frames, correlation
// IDs included.
func genParked(w *workloadSpec) []byte {
	var buf []byte
	for j := 0; j < w.Parked; j++ {
		req := wire.SubmitReq{Items: []txn.Item{txn.Item(j)}, Compute: parkCompute, Deadline: parkDeadline}
		buf = wire.AppendSubmit(buf, parkID(j), &req)
	}
	return buf
}

// genSchedule draws Poisson arrivals at rate per second over dur and
// deals them to the connections in turn. Times are offsets from the
// phase start, so a late generator cannot shift later arrivals.
func genSchedule(seed int64, lane uint64, rate float64, dur time.Duration, conns int) [][]int64 {
	r := newRNG(seed, 1000+lane)
	due := make([][]int64, conns)
	t := 0.0
	for k := 0; ; k++ {
		t += r.exp() / rate
		ns := int64(t * 1e9)
		if ns >= int64(dur) {
			return due
		}
		due[k%conns] = append(due[k%conns], ns)
	}
}

// streamHash is the fingerprint of everything the server is sent in
// the measured phases: the parked backlog, the request rings and the
// open-phase schedule.
func streamHash(parked []byte, streams []*stream, open [][]int64) string {
	h := sha256.New()
	h.Write(parked)
	var b [8]byte
	for c, s := range streams {
		h.Write(s.frames)
		for _, d := range open[c] {
			binary.LittleEndian.PutUint64(b[:], uint64(d))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
