// Package lint is shark's in-tree static-analysis suite: a small,
// dependency-free reimplementation of the go/analysis vocabulary
// (Analyzer, Pass, Diagnostic) plus the five analyzers that encode
// this repo's hard-won runtime invariants — bounded wire-decode
// allocation, mandatory ...Ctx cancellation paths, lock discipline,
// idempotent Close, and atomic metrics. The module has no external
// dependencies by design, so golang.org/x/tools is off the table; the
// framework here is the minimal subset those analyzers need, loading
// type information through `go list -export` and the standard
// go/types importer.
//
// docs/INVARIANTS.md lists each enforced invariant, the incident that
// motivated it, and how to add a new analyzer.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one invariant check. The shape deliberately
// mirrors golang.org/x/tools/go/analysis.Analyzer so the analyzers
// could migrate to the real framework if the dependency ever lands.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. Lower-case, no
	// spaces.
	Name string
	// Doc is a one-paragraph description; the first line is the
	// summary shown by `shark-lint -list`.
	Doc string
	// Run reports diagnostics for one package via pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Report records a diagnostic, stamping it with the analyzer name.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	p.report(d)
}

// Reportf records a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, positioned by token.Pos within the
// pass's FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string

	// position is resolved by the runner (the FileSet may be gone by
	// the time diagnostics are printed).
	position token.Position
}

// Position returns the resolved file:line:column of the diagnostic.
func (d Diagnostic) Position() token.Position { return d.position }

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.position, d.Message, d.Analyzer)
}

// sortDiagnostics orders findings by file, line, column, analyzer for
// stable output.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i].position, ds[j].position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return ds[i].Analyzer < ds[j].Analyzer
	})
}
