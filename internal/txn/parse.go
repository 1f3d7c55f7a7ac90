package txn

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ParseProgram reads a transaction program from the indentation-based text
// format used by cmd/rtanalyze and the documentation:
//
//	program transfer
//	node transfer accesses 0
//	  node transfer/ok accesses 1
//	  node transfer/overdraft accesses 1 3 4
//
// Rules: the first non-comment line is "program <name>"; each following
// line is "node <label> [accesses <item>...]"; nesting is by indentation
// (any consistent mix of spaces, two columns per level is conventional);
// the first node is the root and must be the least indented; '#' starts a
// comment. The resulting program is validated.
func ParseProgram(r io.Reader) (*Program, error) {
	sc := bufio.NewScanner(r)
	lineNo := 0
	next := func() (string, bool) {
		for sc.Scan() {
			lineNo++
			line := sc.Text()
			if i := strings.IndexByte(line, '#'); i >= 0 {
				line = line[:i]
			}
			if strings.TrimSpace(line) == "" {
				continue
			}
			return line, true
		}
		return "", false
	}

	head, ok := next()
	if !ok {
		return nil, fmt.Errorf("txn: empty program text")
	}
	fields := strings.Fields(head)
	if len(fields) != 2 || fields[0] != "program" {
		return nil, fmt.Errorf("txn: line %d: expected \"program <name>\", got %q", lineNo, strings.TrimSpace(head))
	}
	p := &Program{Name: fields[1]}

	type frame struct {
		indent int
		node   *Node
	}
	var stack []frame

	for {
		line, ok := next()
		if !ok {
			break
		}
		indent := len(line) - len(strings.TrimLeft(line, " \t"))
		fields := strings.Fields(line)
		if len(fields) < 2 || fields[0] != "node" {
			return nil, fmt.Errorf("txn: line %d: expected \"node <label> [accesses ...]\"", lineNo)
		}
		n := &Node{Label: fields[1]}
		if len(fields) > 2 {
			if fields[2] != "accesses" {
				return nil, fmt.Errorf("txn: line %d: expected \"accesses\", got %q", lineNo, fields[2])
			}
			var items []Item
			for _, f := range fields[3:] {
				v, err := strconv.Atoi(f)
				if err != nil || v < 0 {
					return nil, fmt.Errorf("txn: line %d: bad item %q", lineNo, f)
				}
				items = append(items, Item(v))
			}
			n.Accesses = NewSet(items...)
		}

		// Pop frames at >= this indentation; the remaining top is the parent.
		for len(stack) > 0 && stack[len(stack)-1].indent >= indent {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			if p.Root != nil {
				return nil, fmt.Errorf("txn: line %d: second root %q (only one least-indented node allowed)", lineNo, n.Label)
			}
			p.Root = n
		} else {
			parent := stack[len(stack)-1].node
			parent.Children = append(parent.Children, n)
		}
		stack = append(stack, frame{indent: indent, node: n})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("txn: reading program: %w", err)
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// WriteProgram renders a program in the text format accepted by
// ParseProgram (round-trip safe for valid programs).
func WriteProgram(w io.Writer, p *Program) error {
	if err := p.validate(); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "program %s\n", p.Name); err != nil {
		return err
	}
	var walk func(n *Node, depth int) error
	walk = func(n *Node, depth int) error {
		line := strings.Repeat("  ", depth) + "node " + n.Label
		if !n.Accesses.empty() {
			parts := make([]string, 0, n.Accesses.Len())
			items := n.Accesses.items()
			sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
			for _, it := range items {
				parts = append(parts, strconv.Itoa(int(it)))
			}
			line += " accesses " + strings.Join(parts, " ")
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(p.Root, 0)
}
