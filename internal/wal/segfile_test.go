package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// appendPairs buffers n submit+outcome pairs in l (nothing waits on
// them: the caller syncs) and returns how many records that was.
func appendPairs(t testing.TB, l *Logger, rng *rand.Rand, n int) int {
	t.Helper()
	items := make([]int32, 1+rng.Intn(6))
	for i := range items {
		items[i] = rng.Int31n(1 << 20)
	}
	for i := 0; i < n; i++ {
		seq, err := l.AppendSubmit(&SubmitRecord{Items: items, Compute: time.Millisecond, Deadline: time.Second})
		if err != nil {
			t.Fatalf("AppendSubmit: %v", err)
		}
		if err := l.AppendOutcome(&OutcomeRecord{Seq: seq, State: 3, Response: time.Duration(rng.Int63n(1 << 30))}, nil); err != nil {
			t.Fatalf("AppendOutcome: %v", err)
		}
	}
	return 2 * n
}

// kill stops l's sync goroutine and walks away from the open segment,
// which is what SIGKILL leaves on disk: nothing closes the file, so
// nothing trims it. (The descriptor is closed behind segFile's back.)
func kill(l *Logger) {
	close(l.stop)
	<-l.done
	if n := len(l.segs); n > 0 && l.segs[n-1].f != nil {
		l.segs[n-1].f.(*segFile).f.Close()
	}
}

func segmentSizes(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make(map[string]int64)
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		sizes[e.Name()] = info.Size()
	}
	return sizes
}

// TestDirFSSegmentProperty drives the same random batches — sized to
// straddle zeroChunk boundaries, one of them larger than a chunk —
// through a Logger over DirFS (real files) and one over MemFS (the
// append-only model, i.e. what the log looked like before segments were
// preallocated), syncing each batch, and then kills the DirFS one:
//
//   - every segment on disk, minus its zero tail, is byte for byte the
//     MemFS segment of the same name;
//   - a segment closed by rotation has no tail; the active one is
//     zero-written to a chunk multiple;
//   - a scan of the killed log returns exactly the synced records,
//     Truncated == false, ZeroTailBytes == the slack on disk;
//   - recovery rewrites nothing, and a segment written after it and
//     closed cleanly is exactly its records.
func TestDirFSSegmentProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 20260101} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			dfs, err := NewDirFS(dir)
			if err != nil {
				t.Fatal(err)
			}
			mfs := NewMemFS()
			opts := func(fsys FS) Options {
				// Flushes happen at Sync and nowhere else, so both loggers
				// cut the same batches and rotate at the same records.
				return Options{FS: fsys, SyncEvery: time.Hour, SegmentBytes: 5 << 19, Retain: 1 << 20}
			}
			dl, _, err := Open(opts(dfs))
			if err != nil {
				t.Fatal(err)
			}
			ml, _, err := Open(opts(mfs))
			if err != nil {
				t.Fatal(err)
			}
			records := 0
			for batch := 0; batch < 24; batch++ {
				n := 1 + rng.Intn(4000) // ≈ 0.1–300 KB
				if batch == 11 {
					n = 20000 // ≈ 1.5 MiB: crosses two chunk boundaries at once
				}
				content := rng.Int63()
				records += appendPairs(t, dl, rand.New(rand.NewSource(content)), n)
				appendPairs(t, ml, rand.New(rand.NewSource(content)), n)
				if err := dl.Sync(); err != nil {
					t.Fatalf("Sync (DirFS): %v", err)
				}
				if err := ml.Sync(); err != nil {
					t.Fatalf("Sync (MemFS): %v", err)
				}
			}
			logical := int64(dl.Stats().Bytes)
			if rot := dl.Stats().Rotations; rot < 2 || rot != ml.Stats().Rotations {
				t.Fatalf("rotations: DirFS %d, MemFS %d (want equal, at least 2)", rot, ml.Stats().Rotations)
			}
			kill(dl)
			if err := ml.Close(); err != nil {
				t.Fatal(err)
			}

			names, err := mfs.List()
			if err != nil {
				t.Fatal(err)
			}
			sizes := segmentSizes(t, dir)
			if len(sizes) != len(names) {
				t.Fatalf("DirFS has %d files, MemFS %d segments", len(sizes), len(names))
			}
			var slack int64
			for i, name := range names {
				want, _ := mfs.ReadFile(name)
				got, err := dfs.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) < len(want) || !bytes.Equal(got[:len(want)], want) {
					t.Fatalf("%s: the first %d bytes on disk are not the appended bytes", name, len(want))
				}
				if !allZero(got[len(want):]) {
					t.Fatalf("%s: non-zero bytes after the records", name)
				}
				switch tail := int64(len(got) - len(want)); {
				case i < len(names)-1 && tail != 0:
					t.Fatalf("%s: closed by rotation with a %d-byte tail", name, tail)
				case i == len(names)-1 && (tail == 0 || len(got)%zeroChunk != 0):
					t.Fatalf("%s: active segment is %d bytes on disk for %d logical: want a chunk multiple with slack", name, len(got), len(want))
				default:
					slack += tail
				}
			}

			scanned, err := Scan(dfs, nil)
			if err != nil {
				t.Fatalf("Scan: %v", err)
			}
			if scanned.Records != records || scanned.Truncated || scanned.ZeroTailBytes != slack || len(scanned.Unresolved) != 0 {
				t.Fatalf("scan of the killed log: %+v; want %d records, not truncated, zero tail %d", scanned, records, slack)
			}

			// Recovery reads the same thing and rewrites nothing; what it
			// then writes and closes has no tail.
			l2, rec, err := Open(opts(dfs))
			if err != nil {
				t.Fatal(err)
			}
			if rec.Records != records || rec.Truncated || rec.ZeroTailBytes != slack {
				t.Fatalf("recovery of the killed log: %+v", rec)
			}
			appendPairs(t, l2, rng, 100)
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			after := segmentSizes(t, dir)
			if len(after) != len(sizes)+1 {
				t.Fatalf("files after recovery: %v, before: %v", after, sizes)
			}
			var total int64
			for name, size := range after {
				if old, ok := sizes[name]; ok && old != size {
					t.Fatalf("%s: recovery changed its size %d -> %d", name, old, size)
				}
				total += size
			}
			if want := logical + slack + int64(l2.Stats().Bytes); total != want {
				t.Fatalf("bytes on disk after a clean close: %d, want %d (records + the killed segment's tail)", total, want)
			}
		})
	}
}

// TestCleanCloseLeavesNoZeroTail: after Close the segment is exactly
// its records, so the next Open finds no zero tail.
func TestCleanCloseLeavesNoZeroTail(t *testing.T) {
	dir := t.TempDir()
	dfs, err := NewDirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := Open(Options{FS: dfs})
	if err != nil {
		t.Fatal(err)
	}
	appendPair(t, l, 1, 2)
	appendPair(t, l, 3)
	if sizes := segmentSizes(t, dir); len(sizes) != 1 || sizes[segName(1)] != zeroChunk {
		t.Fatalf("live segment: %v, want one file of %d bytes", sizes, zeroChunk)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if sizes := segmentSizes(t, dir); sizes[segName(1)] != int64(l.Stats().Bytes) {
		t.Fatalf("closed segment: %v, want %d bytes", sizes, l.Stats().Bytes)
	}
	l2, rec, err := Open(Options{FS: dfs})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Records != 4 || rec.Truncated || rec.ZeroTailBytes != 0 {
		t.Fatalf("recovery after a clean close: %+v", rec)
	}
}

// TestZeroTailInNonFinalSegment: a segment a crash left with a zero
// tail stops being the final one as soon as the restarted logger opens
// its own, and must keep scanning cleanly; zeros FOLLOWED by a record
// there are still corruption of acknowledged data.
func TestZeroTailInNonFinalSegment(t *testing.T) {
	build := func(t *testing.T) (*MemFS, []string) {
		fs := NewMemFS()
		l, _ := openMem(t, fs, func(o *Options) { o.SegmentBytes = 1 }) // rotate every flush
		appendPair(t, l, 1)
		appendPair(t, l, 2)
		appendPair(t, l, 3)
		l.Close()
		names, _ := fs.List()
		if len(names) != 3 {
			t.Fatalf("segments: %v", names)
		}
		return fs, names
	}

	t.Run("zero-tail", func(t *testing.T) {
		fs, names := build(t)
		if err := fs.Append(names[0], make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Append(names[2], make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		before, _ := fs.ReadFile(names[0])
		l, rec := openMem(t, fs, nil)
		l.Close()
		if rec.Records != 6 || rec.Truncated || rec.ZeroTailBytes != 4196 || len(rec.Unresolved) != 0 {
			t.Fatalf("recovery: %+v", rec)
		}
		if after, _ := fs.ReadFile(names[0]); !bytes.Equal(before, after) {
			t.Fatal("recovery rewrote a non-final segment with a zero tail")
		}
	})

	t.Run("zeros-then-record", func(t *testing.T) {
		fs, names := build(t)
		tail := AppendSubmit(make([]byte, 512), &SubmitRecord{Seq: 50, Items: []int32{9}, Compute: 1, Deadline: 1})
		if err := fs.Append(names[1], tail); err != nil {
			t.Fatal(err)
		}
		_, _, err := Open(Options{FS: fs})
		if err == nil || !strings.Contains(err.Error(), "non-final segment") {
			t.Fatalf("Open over zeros followed by a record in a non-final segment: %v", err)
		}
	})
}

// BenchmarkGroupCommit is the in-process price of one group commit on
// the filesystem under the test's temp dir: a Logger over DirFS flushing
// 64 submit+outcome pairs, against a plain os.File taking the same bytes
// by append + Sync (what a segment was before it was preallocated).
// Reports append_fsync_ns and ratio = ns/op over it (below 1: the commit
// is cheaper than the append, encoding 128 records included); on tmpfs
// both sides are ≈ 0 and the ratio says nothing.
func BenchmarkGroupCommit(b *testing.B) {
	dir := b.TempDir()
	dfs, err := NewDirFS(dir)
	if err != nil {
		b.Fatal(err)
	}
	l, _, err := Open(Options{FS: dfs, SyncEvery: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	plain, err := os.OpenFile(filepath.Join(dir, "append.bin"), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		b.Fatal(err)
	}
	defer plain.Close()
	rng := rand.New(rand.NewSource(1))
	appendPairs(b, l, rng, 64)
	batch := append([]byte(nil), l.pend.buf...)
	if err := l.Sync(); err != nil { // creates the segment and its first chunk
		b.Fatal(err)
	}

	var appendNs time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		appendPairs(b, l, rng, 64)
		if err := l.Sync(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		t0 := time.Now()
		if _, err := plain.Write(batch); err != nil {
			b.Fatal(err)
		}
		if err := plain.Sync(); err != nil {
			b.Fatal(err)
		}
		appendNs += time.Since(t0)
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(appendNs)/float64(b.N), "append_fsync_ns")
	if appendNs > 0 {
		b.ReportMetric(float64(b.Elapsed())/float64(appendNs), "ratio")
	}
}
