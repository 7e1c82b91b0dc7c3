// Package linttest is a dependency-free stand-in for
// golang.org/x/tools/go/analysis/analysistest: it runs one analyzer
// over a fixture package directory and checks its diagnostics against
// `// want` comments.
//
// Expectation syntax, on the line the diagnostic should land on:
//
//	code() // want `regexp`
//
// Multiple backquoted regexps on one line expect multiple
// diagnostics. Every diagnostic must be wanted and every want must
// fire, or the test fails.
package linttest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"shark/internal/lint"
)

// Run analyzes the fixture directory with the analyzer and verifies
// the // want expectations.
func Run(t *testing.T, a *lint.Analyzer, dir string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixture files in %s (%v)", dir, err)
	}
	sort.Strings(files)
	pkg, err := lint.TypeCheck("fixture/"+filepath.Base(dir), files, stdExportLookup(t))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := lint.RunPackage(pkg, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	checkWants(t, files, diags)
}

var wantRE = regexp.MustCompile("`([^`]+)`")

type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// checkWants parses // want comments straight from the fixture
// sources and cross-checks the diagnostics.
func checkWants(t *testing.T, files []string, diags []lint.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			_, after, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			ms := wantRE.FindAllStringSubmatch(after, -1)
			if len(ms) == 0 {
				t.Errorf("%s:%d: // want with no backquoted regexp", f, i+1)
				continue
			}
			for _, m := range ms {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp: %v", f, i+1, err)
				}
				wants = append(wants, &want{file: f, line: i + 1, re: re})
			}
		}
	}
	for _, d := range diags {
		pos := d.Position()
		matched := false
		for _, w := range wants {
			if !w.hit && sameFile(w.file, pos.Filename) && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func sameFile(a, b string) bool {
	aa, _ := filepath.Abs(a)
	bb, _ := filepath.Abs(b)
	return aa == bb
}

// stdExportLookup resolves fixture imports (standard library only)
// to compiler export data via one cached `go list -export` run per
// process.
var (
	stdOnce    sync.Once
	stdExports map[string]string
	stdErr     error
)

func stdExportLookup(t *testing.T) func(string) (io.ReadCloser, error) {
	t.Helper()
	stdOnce.Do(func() {
		stdExports = map[string]string{}
		// One `std` listing covers every stdlib import any fixture
		// could use; the build cache makes repeats cheap.
		cmd := exec.Command("go", "list", "-export", "-json=ImportPath,Export", "std")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			stdErr = fmt.Errorf("go list -export std: %v\n%s", err, stderr.String())
			return
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p struct{ ImportPath, Export string }
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				stdErr = err
				return
			}
			if p.Export != "" {
				stdExports[p.ImportPath] = p.Export
			}
		}
	})
	if stdErr != nil {
		t.Fatalf("resolving stdlib export data: %v", stdErr)
	}
	return lint.ExportLookup(stdExports)
}
