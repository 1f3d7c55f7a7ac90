package fault

import (
	"errors"
	"fmt"
	"testing"
)

// recFile records operations so tests can observe what reached the
// "disk" through the injector.
type recFile struct {
	data   []byte
	syncs  int
	closes int
}

func (r *recFile) Write(p []byte) (int, error) {
	r.data = append(r.data, p...)
	return len(p), nil
}
func (r *recFile) Sync() error  { r.syncs++; return nil }
func (r *recFile) Close() error { r.closes++; return nil }

func TestFilePlanZeroIsIdentity(t *testing.T) {
	f := &recFile{}
	got := WrapFile(42, FilePlan{}, "wal-0.log", f)
	if got != FileOps(f) {
		t.Fatalf("zero plan wrapped the file: %T", got)
	}
}

func TestFilePlanValidate(t *testing.T) {
	if err := (FilePlan{TornWriteProb: 1.5}).Validate(); err == nil {
		t.Fatal("probability > 1 accepted")
	}
	if err := (FilePlan{SyncErrProb: -0.1}).Validate(); err == nil {
		t.Fatal("negative probability accepted")
	}
	if _, err := parseFilePlan([]byte(`{"torn_write_prob":0.5,"typo":1}`)); err == nil {
		t.Fatal("unknown JSON field accepted")
	}
	p, err := parseFilePlan([]byte(`{"torn_write_prob":0.25,"sync_err_prob":0.5}`))
	if err != nil || p.TornWriteProb != 0.25 || p.SyncErrProb != 0.5 {
		t.Fatalf("parse: %+v, %v", p, err)
	}
}

// faultTrace drives a fixed operation sequence through an injector and
// returns a compact transcript of what happened.
func faultTrace(seed int64, plan FilePlan, name string) string {
	f := &recFile{}
	w := WrapFile(seed, plan, name, f)
	out := ""
	for i := 0; i < 64; i++ {
		p := make([]byte, 32)
		for j := range p {
			p[j] = byte(i)
		}
		n, err := w.Write(p)
		out += fmt.Sprintf("w%d:%d,%v;", i, n, err != nil)
		if i%4 == 3 {
			out += fmt.Sprintf("s%d:%v;", i, w.Sync() != nil)
		}
	}
	out += fmt.Sprintf("disk:%x", f.data)
	return out
}

func TestFileFaultsDeterministic(t *testing.T) {
	plan := FilePlan{TornWriteProb: 0.2, ShortWriteProb: 0.2, SyncErrProb: 0.3, CorruptProb: 0.2}
	a := faultTrace(7, plan, "wal-a.log")
	b := faultTrace(7, plan, "wal-a.log")
	if a != b {
		t.Fatal("same seed+name produced different fault sequences")
	}
	if c := faultTrace(8, plan, "wal-a.log"); c == a {
		t.Fatal("different seed produced identical fault sequence")
	}
	if d := faultTrace(7, plan, "wal-b.log"); d == a {
		t.Fatal("different file name produced identical fault sequence")
	}
}

func TestFileFaultShapes(t *testing.T) {
	// With probability 1 each shape must actually fire.
	f := &recFile{}
	w := WrapFile(1, FilePlan{TornWriteProb: 1}, "t", f)
	n, err := w.Write(make([]byte, 100))
	var fe *fileError
	if !errors.As(err, &fe) || fe.op != "write" || n != len(f.data) || n >= 100 {
		t.Fatalf("torn write: n=%d err=%v disk=%d", n, err, len(f.data))
	}

	f = &recFile{}
	w = WrapFile(1, FilePlan{ShortWriteProb: 1}, "t", f)
	n, err = w.Write(make([]byte, 100))
	if err != nil || n >= 100 || n < 1 || n != len(f.data) {
		t.Fatalf("short write: n=%d err=%v disk=%d", n, err, len(f.data))
	}

	f = &recFile{}
	w = WrapFile(1, FilePlan{CorruptProb: 1}, "t", f)
	orig := make([]byte, 100)
	if n, err = w.Write(orig); err != nil || n != 100 || len(f.data) != 100 {
		t.Fatalf("corrupt write: n=%d err=%v disk=%d", n, err, len(f.data))
	}
	flipped := 0
	for _, b := range f.data {
		if b != 0 {
			flipped++
		}
	}
	if flipped != 1 {
		t.Fatalf("corrupt write flipped %d bytes, want 1", flipped)
	}
	for _, b := range orig {
		if b != 0 {
			t.Fatal("corrupt write mutated the caller's buffer")
		}
	}

	f = &recFile{}
	w = WrapFile(1, FilePlan{SyncErrProb: 1}, "t", f)
	if err := w.Sync(); !errors.As(err, &fe) || fe.op != "sync" || f.syncs != 0 {
		t.Fatalf("sync error: %v (syncs=%d)", err, f.syncs)
	}
	if err := w.Close(); err != nil || f.closes != 1 {
		t.Fatalf("close passthrough: %v (closes=%d)", err, f.closes)
	}
}
