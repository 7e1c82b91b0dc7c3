package lint

import (
	"fmt"
)

// RunPackage runs the analyzers over one type-checked package.
// Diagnostics come back sorted by position.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			report:    func(d Diagnostic) { out = append(out, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %v", a.Name, pkg.PkgPath, err)
		}
	}
	for i := range out {
		out[i].position = pkg.Fset.Position(out[i].Pos)
	}
	sortDiagnostics(out)
	return out, nil
}

// Run loads patterns from dir and runs the analyzers over every
// loaded package.
func Run(dir string, analyzers []*Analyzer, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		ds, err := RunPackage(pkg, analyzers)
		if err != nil {
			return nil, err
		}
		out = append(out, ds...)
	}
	return out, nil
}
