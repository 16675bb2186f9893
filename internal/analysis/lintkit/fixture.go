package lintkit

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// expectation is one `// want "regexp"` annotation in a fixture file.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// wantRE pulls the quoted patterns off a want comment.
var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// RunFixture type-checks the fixture package in dir (relative to the test's
// working directory), then each of dir's subdirectories as a further
// package that may import it by its name, and asserts that the analyzers,
// run over every one of them with all of them as the Program, report
// exactly the diagnostics their `// want "regexp"` comments declare — the
// analysistest contract: every diagnostic must match a want on its line,
// every want must be matched by some diagnostic.
//
//distlint:unreachable-ok test helper: internal/analysis's fixture tests
func RunFixture(t *testing.T, dir string, analyzers ...*Analyzer) {
	t.Helper()
	dirs := []string{dir}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture %s: %v", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, filepath.Join(dir, e.Name()))
		}
	}
	l := NewLoader("")
	var pkgs []*Package
	var wants []*expectation
	for _, d := range dirs {
		pkg, err := l.LoadDir(d)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", d, err)
		}
		pkgs = append(pkgs, pkg)
		wants = append(wants, collectWants(t, pkg)...)
	}
	diags, err := Run(pkgs, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", dir, err)
	}
	for _, d := range diags {
		pos := l.Fset.Position(d.Pos)
		if !claimWant(wants, pos, d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic [%s]: %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %s, got none", w.file, w.line, w.raw)
		}
	}
}

// collectWants parses every want comment in the package.
func collectWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, raw := range splitQuoted(m[1]) {
					pat, err := strconv.Unquote(raw)
					if err != nil {
						t.Fatalf("%s:%d: malformed want pattern %s: %v", pos.Filename, pos.Line, raw, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: malformed want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}
	return wants
}

// splitQuoted splits `"a" "b c"` into its quoted tokens. Both double-quoted
// and backquoted patterns are accepted, as in analysistest.
func splitQuoted(s string) []string {
	var out []string
	for {
		s = strings.TrimSpace(s)
		if len(s) == 0 || (s[0] != '"' && s[0] != '`') {
			return out
		}
		quote := s[0]
		end := 1
		for end < len(s) {
			if quote == '"' && s[end] == '\\' {
				end += 2
				continue
			}
			if s[end] == quote {
				break
			}
			end++
		}
		if end >= len(s) {
			return out
		}
		out = append(out, s[:end+1])
		s = s[end+1:]
	}
}

// claimWant marks the first unmatched expectation on the diagnostic's line
// whose pattern matches, reporting whether one was found.
func claimWant(wants []*expectation, pos token.Position, msg string) bool {
	for _, w := range wants {
		if w.matched || w.file != pos.Filename || w.line != pos.Line {
			continue
		}
		if w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// FormatDiagnostic renders a diagnostic as file:line:col: [analyzer] message,
// the clickable form the distlint driver prints.
func FormatDiagnostic(fset *token.FileSet, d Diagnostic) string {
	pos := fset.Position(d.Pos)
	return fmt.Sprintf("%s:%d:%d: [%s] %s", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
}
