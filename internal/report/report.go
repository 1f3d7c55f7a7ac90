// Package report renders experiment results as aligned text tables,
// markdown tables and CSV — the formats used by the CLI tools and by
// EXPERIMENTS.md.
package report

import (
	"fmt"
	"strings"
)

// Table is a simple column-oriented result table.
type Table struct {
	title   string
	columns []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{title: title, columns: columns}
}

// AddRow appends a row; cells beyond the column count are dropped, missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

func (t *Table) widths() []int {
	w := make([]int, len(t.columns))
	for i, c := range t.columns {
		w[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > w[i] {
				w[i] = len(cell)
			}
		}
	}
	return w
}

// Text renders the table as aligned plain text.
func (t *Table) Text() string {
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "%s\n", t.title)
	}
	w := t.widths()
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.columns)
	sep := make([]string, len(t.columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", w[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.title)
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.columns, " | "))
	sep := make([]string, len(t.columns))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range t.rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (quotes cells containing
// commas, quotes or newlines).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteString(`"` + strings.ReplaceAll(cell, `"`, `""`) + `"`)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.columns)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CIn formats a confidence half-width together with the replication count
// behind it, "0.42 (n=10)" — the precision statement attached to every
// figure value, so tables state how many runs back each mean.
func CIn(ci float64, n int) string { return fmt.Sprintf("%.2f (n=%d)", ci, n) }

// F formats a float with two decimals (helper for table rows).
func F(v float64) string { return fmt.Sprintf("%.2f", v) }
