package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestNoArgsAnalysesPaperExample: with no files, rtanalyze prints the
// Figure 1/2 analysis — A's root might access both branches, and A and B
// conditionally conflict.
func TestNoArgsAnalysesPaperExample(t *testing.T) {
	code, stdout, stderr := runCLI(t)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr:\n%s", code, stderr)
	}
	for _, want := range []string{
		"analysing the paper's Figure 1/2 example",
		"A        hasaccessed={0}  mightaccess={0, 1, 2, 3, 4, 5, 6}",
		"Aa       hasaccessed={0, 1, 2, 3}  mightaccess={0, 1, 2, 3} (leaf)",
		"A vs B: conditionally-conflict",
		"safety(A wrt B) = safe",
		"safety(B wrt A) = conditionally-unsafe",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
}

// TestAnalysesWrittenProgram: a file written by WriteProgram is read back
// and analysed like the built-in example.
func TestAnalysesWrittenProgram(t *testing.T) {
	p := &rtdbs.Program{
		Name: "transfer",
		Root: &rtdbs.Node{
			Label: "transfer", Accesses: rtdbs.NewItemSet(0),
			Children: []*rtdbs.Node{
				{Label: "ok", Accesses: rtdbs.NewItemSet(1)},
				{Label: "overdraft", Accesses: rtdbs.NewItemSet(1, 3, 4)},
			},
		},
	}
	var buf bytes.Buffer
	if err := rtdbs.WriteProgram(&buf, p); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	a := filepath.Join(dir, "transfer.prog")
	b := filepath.Join(dir, "audit.prog")
	if err := os.WriteFile(a, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte("program audit\nnode audit accesses 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI(t, a, b)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr:\n%s", code, stderr)
	}
	for _, want := range []string{
		"Program transfer:",
		"transfer hasaccessed={0}  mightaccess={0, 1, 3, 4}",
		"overdraft hasaccessed={0, 1, 3, 4}  mightaccess={0, 1, 3, 4} (leaf)",
		"Program audit:",
		"transfer vs audit: conditionally-conflict",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
}

// TestMalformedFileExitsOne: a file ParseProgram rejects (here the old
// JSON tree format) fails with exit 1 and names the file.
func TestMalformedFileExitsOne(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"name": "A", "root": {"label": "A", "accesses": [0]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCLI(t, path)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if stdout != "" {
		t.Errorf("malformed input printed an analysis:\n%s", stdout)
	}
	if !strings.Contains(stderr, "rtanalyze: "+path+":") {
		t.Errorf("stderr does not name the file:\n%s", stderr)
	}
}
