package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// exprString renders an expression compactly ("c.mu", "s.metrics.X")
// for matching lock receivers and building messages. Position-free,
// so two textual occurrences of the same expression compare equal.
func exprString(e ast.Expr) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, token.NewFileSet(), e)
	return buf.String()
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (method or function), or nil for builtins, conversions, and
// indirect calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// recvNamed returns the named type of a method's receiver, looking
// through pointers, or nil for plain functions.
func recvNamed(f *types.Func) *types.Named {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// namedHasMethod reports whether the named type declares a method
// with the given name (on value or pointer receiver).
func namedHasMethod(n *types.Named, name string) bool {
	for i := 0; i < n.NumMethods(); i++ {
		if n.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// isMethodOn reports whether f is a method named name whose receiver
// type is declared in package pkgPath (e.g. "sync" mutexes).
func isMethodOn(f *types.Func, pkgPath, name string) bool {
	if f == nil || f.Name() != name {
		return false
	}
	n := recvNamed(f)
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == pkgPath
}

// rootIdent walks a selector/index/paren/star chain to its leftmost
// identifier: rootIdent(s.metrics.X) == s. Returns nil when the root
// is not a plain identifier (e.g. a call result).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// terminates reports whether the statement list always leaves the
// enclosing scope: its last statement is a return, branch (break,
// continue, goto), panic call, or an if/else where both arms
// terminate.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch s := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.IfStmt:
		if s.Else == nil {
			return false
		}
		elseBlock, ok := s.Else.(*ast.BlockStmt)
		if !ok {
			if elifs, ok := s.Else.(*ast.IfStmt); ok {
				return terminates(s.Body.List) && terminates([]ast.Stmt{elifs})
			}
			return false
		}
		return terminates(s.Body.List) && terminates(elseBlock.List)
	}
	return false
}

// funcsOf visits every function and method body in the pass,
// including function literals, calling fn with the enclosing
// declaration name ("" for literals outside a declaration).
func funcsOf(files []*ast.File, fn func(name string, decl *ast.FuncDecl, body *ast.BlockStmt)) {
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn(fd.Name.Name, fd, fd.Body)
		}
	}
}

// isTestFile reports whether pos sits in a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
