// File-level fault injection for the durability layer. A FilePlan
// declares per-operation probabilities of the failure shapes that
// matter to a write-ahead log — torn writes, short writes, fsync
// errors, silent corruption — and WrapFile wraps a segment file so
// those faults fire deterministically from a named random substream of
// the run seed, following the same conventions as the simulator Plan
// above and internal/chaos: the zero plan is a proven identity (the
// very same file handle back, no wrapper in the path), and the same
// (seed, file name, plan) triple always produces the same fault sequence
// regardless of timing.
package fault

import (
	"fmt"

	"repro/internal/stats"
)

// FileOps is the slice of a file handle the injector interposes on.
// It is structurally identical to wal.File, so a thin closure adapts
// WrapFile to wal.Options.WrapFile without an import cycle.
type FileOps interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// FilePlan declares file-level faults. The zero value injects nothing:
// WrapFile returns the wrapped handle itself.
type FilePlan struct {
	// TornWriteProb is the per-Write probability that only a prefix of
	// the buffer reaches the file and the write reports an error — the
	// on-disk shape of a crash mid-write.
	TornWriteProb float64
	// ShortWriteProb is the per-Write probability that only a prefix is
	// written and the write reports success with the short count, as a
	// full filesystem or interrupted syscall does.
	ShortWriteProb float64
	// SyncErrProb is the per-Sync probability that the fsync fails
	// without persisting anything new.
	SyncErrProb float64
	// CorruptProb is the per-Write probability that one byte of the
	// buffer is flipped before it reaches the file — silent media
	// corruption that only a checksum can catch.
	CorruptProb float64
}

// zero reports whether the plan injects nothing.
func (p FilePlan) zero() bool { return p == FilePlan{} }

// Validate reports the first problem with the plan.
func (p FilePlan) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"TornWriteProb", p.TornWriteProb},
		{"ShortWriteProb", p.ShortWriteProb},
		{"SyncErrProb", p.SyncErrProb},
		{"CorruptProb", p.CorruptProb},
	} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("fault: %s %v outside [0, 1]", pr.name, pr.v)
		}
	}
	return nil
}

// fileError is the error injected for torn writes and fsync failures,
// distinguishable from real I/O errors in tests and logs.
type fileError struct {
	op   string // "write" or "sync"
	name string // file name as passed to WrapFile
}

func (e *fileError) Error() string {
	return fmt.Sprintf("fault: injected %s error on %s", e.op, e.name)
}

// WrapFile wraps f so its writes and syncs draw faults from the stream
// "fault/file/<name>" of seed. A zero plan returns f unchanged —
// pointer-identical, nothing interposed. The draw order per operation
// is fixed (Write: torn, short, corrupt, then cut/flip positions as
// needed; Sync: error), so fault sequences do not depend on outcome of
// earlier draws beyond the documented schedule.
func WrapFile(seed int64, plan FilePlan, name string, f FileOps) FileOps {
	if plan.zero() {
		return f
	}
	return &faultFile{
		f:    f,
		plan: plan,
		name: name,
		st:   stats.NewSource(seed).Stream("fault/file/" + name),
	}
}

type faultFile struct {
	f    FileOps
	plan FilePlan
	name string
	st   *stats.Stream
}

func (ff *faultFile) Write(p []byte) (int, error) {
	torn := ff.st.Float64() < ff.plan.TornWriteProb
	short := ff.st.Float64() < ff.plan.ShortWriteProb
	corrupt := ff.st.Float64() < ff.plan.CorruptProb
	switch {
	case torn && len(p) > 0:
		cut := ff.st.Intn(len(p))
		n, err := ff.f.Write(p[:cut])
		if err != nil {
			return n, err
		}
		return n, &fileError{op: "write", name: ff.name}
	case short && len(p) > 1:
		cut := 1 + ff.st.Intn(len(p)-1)
		return ff.f.Write(p[:cut])
	case corrupt && len(p) > 0:
		i := ff.st.Intn(len(p))
		q := append([]byte(nil), p...)
		q[i] ^= 0xff
		return ff.f.Write(q)
	default:
		return ff.f.Write(p)
	}
}

func (ff *faultFile) Sync() error {
	if ff.st.Float64() < ff.plan.SyncErrProb {
		return &fileError{op: "sync", name: ff.name}
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error { return ff.f.Close() }
