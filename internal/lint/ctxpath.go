package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxPath reports calls to the context-free variant of an operation
// that also ships a ...Ctx variant (RunJob vs RunJobCtx, Collect vs
// CollectCtx, ...). The context-free wrappers exist
// for process-owning entry points only; library code calling them
// silently detaches the work from job cancellation — the class of bug
// the multi-tenant and serving PRs kept re-fixing.
//
// Exemptions: _test.go files, package main (a main package owns the
// process lifetime, so context.Background() is the honest context),
// and the wrapper definitions themselves.
var CtxPath = &Analyzer{
	Name: "ctxpath",
	Doc: "library code must call the ...Ctx variant when one exists\n\n" +
		"Flags a call to method or function F when a sibling FCtx is declared on\n" +
		"the same type (or in the same package, for plain functions). Test files,\n" +
		"package main, and the F/FCtx wrapper bodies themselves are exempt.",
	Run: runCtxPath,
}

func runCtxPath(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	info := pass.TypesInfo
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			encl := fd.Name.Name
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				f := calleeFunc(info, call)
				if f == nil || strings.HasSuffix(f.Name(), "Ctx") {
					return true
				}
				if !hasCtxSibling(f) {
					return true
				}
				// The wrapper pair itself may delegate freely: Collect
				// calling CollectCtx is the pattern, and FCtx helpers
				// composing other F* entry points stay exempt only when
				// they are the declarations being wrapped.
				if encl == f.Name() || encl == f.Name()+"Ctx" {
					return true
				}
				pass.Reportf(call.Pos(),
					"call to %s bypasses cancellation: use %sCtx so the job context reaches the scheduler",
					f.Name(), f.Name())
				return true
			})
		}
	}
	return nil
}

// hasCtxSibling reports whether f has a FCtx counterpart: a method of
// the same receiver type, or a function in the same package scope.
func hasCtxSibling(f *types.Func) bool {
	sibling := f.Name() + "Ctx"
	if n := recvNamed(f); n != nil {
		return namedHasMethod(n, sibling)
	}
	if f.Pkg() == nil {
		return false
	}
	obj := f.Pkg().Scope().Lookup(sibling)
	sib, ok := obj.(*types.Func)
	return ok && sib.Type().(*types.Signature).Recv() == nil
}
