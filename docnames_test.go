package rtdbs_test

import (
	"bufio"
	"go/ast"
	"go/types"
	"os"
	"path"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// treeProgram is the root module and bench/, type-checked once for every
// test that scans them.
var treeProgram = sync.OnceValues(func() (*program, error) { return loadProgram(".", "bench") })

// docFiles are the documents whose code names TestDocNamesResolve checks.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

var (
	// testName is a backticked test, fuzz target, benchmark or example,
	// optionally a glob ("TestPaperFigure*"), cut short ("BenchmarkFig4a...",
	// read as a prefix) or with a subtest path ("TestCancelDrainsWorkers/fixed").
	testName = regexp.MustCompile(`^((?:Test|Fuzz|Benchmark|Example)[A-Za-z0-9_*]*)(\.\.\.)?(?:/\S*)?$`)
	// qualified is a backticked pkg.Ident or pkg.Ident.Member.
	qualified = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Za-z]\w*)(?:\.([A-Za-z]\w*))?$`)
	codeSpan  = regexp.MustCompile("`([^`]+)`")
)

// TestDocNamesResolve keeps the documents naming only code that exists: a
// deletion cannot leave a stale name behind. Every inline code span (fenced
// blocks are commands and output, not names) that is a test, fuzz target,
// benchmark or example name must name, or as a glob match, a function of
// the tree, and every span of the form pkg.Ident[.Member] whose pkg is a
// package of the tree must resolve in it: Ident in the package scope, and
// Member as a field or method of Ident's type. Names of other packages
// (the standard library, or a variable such as `cfg.Seed`), file names
// (`wal.go`) and metric names (`wire.bad_frames`, which Go style keeps
// free of underscores) are not checked.
func TestDocNamesResolve(t *testing.T) {
	prog, err := treeProgram()
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string]bool{}
	pkgs := map[string][]*types.Package{}
	for _, cp := range prog.pkgs {
		pkgs[cp.types.Name()] = append(pkgs[cp.types.Name()], cp.types)
		for _, f := range cp.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
					funcs[fd.Name.Name] = true
				}
			}
		}
	}
	for _, doc := range docFiles {
		for _, ref := range codeNames(t, doc) {
			if m := testName.FindStringSubmatch(ref.name); m != nil {
				if m[2] != "" {
					m[1] += "*"
				}
				if !matchesFunc(funcs, m[1]) {
					t.Errorf("%s:%d: `%s` names no test function", doc, ref.line, ref.name)
				}
				continue
			}
			m := qualified.FindStringSubmatch(ref.name)
			if m == nil || pkgs[m[1]] == nil || m[2] == "go" || strings.Contains(ref.name, "_") {
				continue
			}
			if !resolves(pkgs[m[1]], m[2], m[3]) {
				t.Errorf("%s:%d: `%s` does not resolve in package %s", doc, ref.line, ref.name, m[1])
			}
		}
	}
}

type codeName struct {
	name string
	line int
}

// codeNames lists the inline code spans of a markdown file outside fenced
// blocks, with their line numbers.
func codeNames(t *testing.T, file string) []codeName {
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []codeName
	fenced := false
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(text), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		for _, m := range codeSpan.FindAllStringSubmatch(text, -1) {
			out = append(out, codeName{name: m[1], line: line})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// matchesFunc reports whether a name, or a glob of names, matches a
// package-level function.
func matchesFunc(funcs map[string]bool, pattern string) bool {
	if !strings.Contains(pattern, "*") {
		return funcs[pattern]
	}
	for name := range funcs {
		if ok, _ := path.Match(pattern, name); ok {
			return true
		}
	}
	return false
}

// resolves reports whether ident (and member, if set) resolves in one of
// the packages of a name.
func resolves(pkgs []*types.Package, ident, member string) bool {
	for _, pkg := range pkgs {
		obj := pkg.Scope().Lookup(ident)
		if obj == nil {
			continue
		}
		if member == "" {
			return true
		}
		if m, _, _ := types.LookupFieldOrMethod(obj.Type(), true, pkg, member); m != nil {
			return true
		}
	}
	return false
}
