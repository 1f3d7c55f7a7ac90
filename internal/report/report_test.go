package report

import (
	"strings"
	"testing"
)

func sample() *Table {
	t := NewTable("Demo", "rate", "miss%")
	t.AddRow("1", "2.50")
	t.AddRow("10", "22.10")
	return t
}

func TestTextAlignment(t *testing.T) {
	out := sample().Text()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if lines[0] != "Demo" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "rate") || !strings.Contains(lines[1], "miss%") {
		t.Errorf("header = %q", lines[1])
	}
	if !strings.Contains(lines[2], "----") {
		t.Errorf("separator = %q", lines[2])
	}
	// Column width fits the widest cell ("22.10").
	if !strings.Contains(lines[3], "1   ") && !strings.Contains(lines[3], "1 ") {
		t.Errorf("row = %q", lines[3])
	}
}

func TestTextWithoutTitle(t *testing.T) {
	tbl := NewTable("", "a")
	tbl.AddRow("x")
	if strings.HasPrefix(tbl.Text(), "\n") {
		t.Error("empty title should not emit a blank line")
	}
}

func TestMarkdown(t *testing.T) {
	out := sample().Markdown()
	if !strings.Contains(out, "**Demo**") {
		t.Error("missing bold title")
	}
	if !strings.Contains(out, "| rate | miss% |") {
		t.Errorf("missing header row:\n%s", out)
	}
	if !strings.Contains(out, "| --- | --- |") {
		t.Error("missing separator row")
	}
	if !strings.Contains(out, "| 10 | 22.10 |") {
		t.Error("missing data row")
	}
}

func TestCSV(t *testing.T) {
	tbl := NewTable("t", "a", "b")
	tbl.AddRow(`say "hi"`, "x,y")
	out := tbl.CSV()
	want := "a,b\n\"say \"\"hi\"\"\",\"x,y\"\n"
	if out != want {
		t.Fatalf("CSV = %q, want %q", out, want)
	}
}

func TestAddRowPadsAndTruncates(t *testing.T) {
	tbl := NewTable("t", "a", "b")
	tbl.AddRow("only")
	tbl.AddRow("1", "2", "3-dropped")
	if tbl.rows[0][1] != "" {
		t.Error("missing cell not padded")
	}
	if len(tbl.rows[1]) != 2 {
		t.Error("extra cell not dropped")
	}
}

func TestAddRowf(t *testing.T) {
	tbl := NewTable("t", "a", "b", "c")
	tbl.addRowf(1.23456, 7, "x")
	row := tbl.rows[0]
	if row[0] != "1.23" || row[1] != "7" || row[2] != "x" {
		t.Fatalf("row = %v", row)
	}
}

func TestFormatHelpers(t *testing.T) {
	if F(1.005) != "1.00" && F(1.005) != "1.01" {
		t.Error("F format wrong")
	}
	if f1(2.25) != "2.2" && f1(2.25) != "2.3" {
		t.Error("F1 format wrong")
	}
	if f3(0.1234) != "0.123" {
		t.Errorf("F3 = %q", f3(0.1234))
	}
}

func TestCIn(t *testing.T) {
	if got := CIn(0.4218, 10); got != "0.42 (n=10)" {
		t.Errorf("CIn = %q, want \"0.42 (n=10)\"", got)
	}
	if got := CIn(0, 2); got != "0.00 (n=2)" {
		t.Errorf("CIn = %q, want \"0.00 (n=2)\"", got)
	}
}
