package experiment

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/metrics"
)

// The checkpoint is a JSONL file: one self-describing record per line, so a
// sweep can be killed at any moment and resumed without losing completed
// work. Two record kinds share the file:
//
//   - {"kind":"header", ...}  written once per Run invocation; pins the
//     definition ID and every option that affects results (transaction
//     count, seed schedule, precision target, sweep points, variants).
//     Resume refuses a checkpoint whose header disagrees with the current
//     options — mixing schedules would silently corrupt aggregates.
//   - {"kind":"run", ...}     one completed seed run with its full metrics
//     summary. Replay skips these runs; because encoding/json round-trips
//     float64 exactly (shortest-representation encoding), a resumed sweep
//     folds bit-identical values and aggregates bit-identically to an
//     uninterrupted one.
//   - {"kind":"failed", ...}  one seed run that exhausted its retries: the
//     failure message and the attempt count, so the exact run can be
//     reproduced from the recorded seed. Replay skips these seeds too;
//     a later "run" record for the same seed (a rerun after a fix)
//     overrides the failure.
//
// Records of several definitions may share one file (rtexp -exp all): each
// carries its definition ID, and loaders ignore other definitions' lines.
// A truncated final line (a run killed mid-write) is tolerated; corruption
// anywhere else is an error.

// checkpointHeader pins the sweep parameters a checkpoint was written under.
type checkpointHeader struct {
	Kind     string    `json:"kind"`
	Def      string    `json:"def"`
	Count    int       `json:"count"`
	Seeds    int       `json:"seeds"`
	TargetCI float64   `json:"target_ci"`
	MaxSeeds int       `json:"max_seeds"`
	XLabel   string    `json:"x_label"`
	Xs       []float64 `json:"xs"`
	Variants []string  `json:"variants"`
	// Robustness options that change what every run computes (omitted
	// when off, so checkpoints from before these options existed still
	// resume cleanly).
	Oracle     bool   `json:"oracle,omitempty"`
	MaxRetries int    `json:"max_retries,omitempty"`
	Fault      string `json:"fault,omitempty"`
	Admission  string `json:"admission,omitempty"`
}

// checkpointRecord is one completed seed run.
type checkpointRecord struct {
	Kind    string         `json:"kind"`
	Def     string         `json:"def"`
	Xi      int            `json:"xi"`
	X       float64        `json:"x"`
	Vi      int            `json:"vi"`
	Variant string         `json:"variant"`
	Seed    int64          `json:"seed"`
	Result  metrics.Result `json:"result"`
}

// checkpointFailure is one seed run that exhausted its retries.
type checkpointFailure struct {
	Kind     string  `json:"kind"`
	Def      string  `json:"def"`
	Xi       int     `json:"xi"`
	X        float64 `json:"x"`
	Vi       int     `json:"vi"`
	Variant  string  `json:"variant"`
	Seed     int64   `json:"seed"`
	Attempts int     `json:"attempts"`
	Error    string  `json:"error"`
}

// cellKey addresses one seed run of one cell.
type cellKey struct {
	xi, vi, seed int
}

// replay is the outcome of loading a checkpoint: completed runs and
// finally-failed seeds, keyed by cell and seed.
type replay struct {
	runs     map[cellKey]metrics.Result
	failures map[cellKey]RunFailure
}

// headerFor builds the header for the given definition and (normalised)
// options: seeds is the effective initial batch, maxSeeds the effective cap
// (0 in fixed mode).
func headerFor(def Definition, opt Options, seeds, maxSeeds int) checkpointHeader {
	names := make([]string, len(def.Variants))
	for i, v := range def.Variants {
		names[i] = v.name
	}
	faultStr := ""
	if !opt.Fault.Zero() {
		// The plan is small and deterministic to encode; its canonical
		// JSON doubles as the equality key in equal().
		b, err := json.Marshal(opt.Fault)
		if err != nil {
			faultStr = fmt.Sprintf("unencodable: %v", err)
		} else {
			faultStr = string(b)
		}
	}
	admStr := ""
	if opt.Admission.Mode != core.AdmitAll {
		admStr = fmt.Sprintf("%s/%d", opt.Admission.Mode, opt.Admission.MaxLive)
	}
	return checkpointHeader{
		Kind:       "header",
		Def:        def.ID,
		Count:      opt.Count,
		Seeds:      seeds,
		TargetCI:   opt.TargetCI,
		MaxSeeds:   maxSeeds,
		XLabel:     def.XLabel,
		Xs:         def.Xs,
		Variants:   names,
		Oracle:     opt.Oracle,
		MaxRetries: opt.MaxRetries,
		Fault:      faultStr,
		Admission:  admStr,
	}
}

// equal reports whether two headers describe the same sweep schedule.
func (h checkpointHeader) equal(o checkpointHeader) bool {
	if h.Def != o.Def || h.Count != o.Count || h.Seeds != o.Seeds ||
		h.TargetCI != o.TargetCI || h.MaxSeeds != o.MaxSeeds || h.XLabel != o.XLabel ||
		h.Oracle != o.Oracle || h.MaxRetries != o.MaxRetries ||
		h.Fault != o.Fault || h.Admission != o.Admission ||
		len(h.Xs) != len(o.Xs) || len(h.Variants) != len(o.Variants) {
		return false
	}
	for i := range h.Xs {
		if h.Xs[i] != o.Xs[i] {
			return false
		}
	}
	for i := range h.Variants {
		if h.Variants[i] != o.Variants[i] {
			return false
		}
	}
	return true
}

// loadCheckpoint replays the checkpoint file for this definition. It
// returns the completed and finally-failed runs keyed by cell and seed,
// and whether the file already held this definition's header or runs (a
// prior, possibly partial, execution). A missing file yields an empty
// replay. Records are applied in file order, so for one seed the latest
// record wins — a rerun that succeeds clears an earlier failure.
func loadCheckpoint(path string, def Definition, want checkpointHeader) (replay, bool, error) {
	rep := replay{runs: make(map[cellKey]metrics.Result), failures: make(map[cellKey]RunFailure)}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return rep, false, nil
	}
	if err != nil {
		return rep, false, fmt.Errorf("experiment %s: reading checkpoint: %w", def.ID, err)
	}
	lines := bytes.Split(data, []byte("\n"))
	// Drop trailing empty lines so "last line" means the last record.
	for len(lines) > 0 && len(bytes.TrimSpace(lines[len(lines)-1])) == 0 {
		lines = lines[:len(lines)-1]
	}
	sawPrior := false
	checkCell := func(i, xi, vi int, seed int64, x float64, variant string) error {
		if xi < 0 || xi >= len(def.Xs) || vi < 0 || vi >= len(def.Variants) || seed < 1 {
			return fmt.Errorf("experiment %s: checkpoint %s line %d: run (%d,%d,%d) out of range",
				def.ID, path, i+1, xi, vi, seed)
		}
		if x != def.Xs[xi] || variant != def.Variants[vi].name {
			return fmt.Errorf("experiment %s: checkpoint %s line %d: run does not match the sweep (x=%v variant=%q)",
				def.ID, path, i+1, x, variant)
		}
		return nil
	}
	for i, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var kind struct {
			Kind string `json:"kind"`
			Def  string `json:"def"`
		}
		if err := json.Unmarshal(line, &kind); err != nil {
			if i == len(lines)-1 {
				// A run killed mid-write leaves a truncated final
				// line; the record it held was never acknowledged,
				// so dropping it is safe.
				continue
			}
			return rep, false, fmt.Errorf("experiment %s: checkpoint %s line %d: %w", def.ID, path, i+1, err)
		}
		if kind.Def != def.ID {
			continue
		}
		sawPrior = true
		switch kind.Kind {
		case "header":
			var h checkpointHeader
			if err := json.Unmarshal(line, &h); err != nil {
				return rep, false, fmt.Errorf("experiment %s: checkpoint %s line %d: %w", def.ID, path, i+1, err)
			}
			if !h.equal(want) {
				return rep, false, fmt.Errorf("experiment %s: checkpoint %s was written with different options (line %d); rerun with the original flags or remove it",
					def.ID, path, i+1)
			}
		case "run":
			var rec checkpointRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				if i == len(lines)-1 {
					continue
				}
				return rep, false, fmt.Errorf("experiment %s: checkpoint %s line %d: %w", def.ID, path, i+1, err)
			}
			if err := checkCell(i, rec.Xi, rec.Vi, rec.Seed, rec.X, rec.Variant); err != nil {
				return rep, false, err
			}
			key := cellKey{xi: rec.Xi, vi: rec.Vi, seed: int(rec.Seed)}
			rep.runs[key] = rec.Result
			delete(rep.failures, key)
		case "failed":
			var rec checkpointFailure
			if err := json.Unmarshal(line, &rec); err != nil {
				if i == len(lines)-1 {
					continue
				}
				return rep, false, fmt.Errorf("experiment %s: checkpoint %s line %d: %w", def.ID, path, i+1, err)
			}
			if err := checkCell(i, rec.Xi, rec.Vi, rec.Seed, rec.X, rec.Variant); err != nil {
				return rep, false, err
			}
			key := cellKey{xi: rec.Xi, vi: rec.Vi, seed: int(rec.Seed)}
			rep.failures[key] = RunFailure{
				xi: rec.Xi, X: rec.X, vi: rec.Vi, Variant: rec.Variant,
				Seed: rec.Seed, Attempts: rec.Attempts, Message: rec.Error,
			}
			delete(rep.runs, key)
		default:
			return rep, false, fmt.Errorf("experiment %s: checkpoint %s line %d: unknown record kind %q",
				def.ID, path, i+1, kind.Kind)
		}
	}
	return rep, sawPrior, nil
}

// checkpointWriter appends records to the checkpoint, flushing after every
// line so a killed process loses at most one partial (tolerated) line.
type checkpointWriter struct {
	f *os.File
	w *bufio.Writer
}

// openCheckpoint opens (creating if needed) the checkpoint for appending
// and writes this invocation's header.
func openCheckpoint(path string, head checkpointHeader) (*checkpointWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: opening checkpoint: %w", head.Def, err)
	}
	c := &checkpointWriter{f: f, w: bufio.NewWriter(f)}
	if err := c.append(head); err != nil {
		f.Close()
		return nil, err
	}
	return c, nil
}

// record appends one completed run.
func (c *checkpointWriter) record(def Definition, o outcome) error {
	return c.append(checkpointRecord{
		Kind:    "run",
		Def:     def.ID,
		Xi:      o.xi,
		X:       def.Xs[o.xi],
		Vi:      o.vi,
		Variant: def.Variants[o.vi].name,
		Seed:    o.seed,
		Result:  o.res,
	})
}

// recordFailure appends one finally-failed run.
func (c *checkpointWriter) recordFailure(def Definition, f RunFailure) error {
	return c.append(checkpointFailure{
		Kind:     "failed",
		Def:      def.ID,
		Xi:       f.xi,
		X:        f.X,
		Vi:       f.vi,
		Variant:  f.Variant,
		Seed:     f.Seed,
		Attempts: f.Attempts,
		Error:    f.Message,
	})
}

func (c *checkpointWriter) append(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("experiment: encoding checkpoint record: %w", err)
	}
	line = append(line, '\n')
	if _, err := c.w.Write(line); err != nil {
		return fmt.Errorf("experiment: writing checkpoint: %w", err)
	}
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("experiment: flushing checkpoint: %w", err)
	}
	return nil
}

// Close flushes and closes the checkpoint file.
func (c *checkpointWriter) Close() error {
	if err := c.w.Flush(); err != nil {
		c.f.Close()
		return err
	}
	return c.f.Close()
}
