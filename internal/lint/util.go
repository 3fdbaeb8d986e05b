package lint

import (
	"go/ast"
	"go/types"
)

// inspectFiles walks every file of the pass's package with fn.
func inspectFiles(pass *Pass, fn func(ast.Node) bool) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, fn)
	}
}

// funcBodies yields the signature and body of every function of the
// package that has one, in source order. A literal deferred directly
// (`defer func(){...}()`) is left out: it runs as part of its parent,
// and an analyzer that walks the parent's deferred calls sees its body
// there.
func funcBodies(pkg *Package, fn func(ftype *ast.FuncType, body *ast.BlockStmt)) {
	for _, f := range pkg.Files {
		var deferred *ast.FuncLit // visited right after its DeferStmt
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn(n.Type, n.Body)
				}
			case *ast.DeferStmt:
				deferred, _ = n.Call.Fun.(*ast.FuncLit)
			case *ast.FuncLit:
				if n != deferred {
					fn(n.Type, n.Body)
				}
			}
			return true
		})
	}
}

// rootIdent unwraps selector, index, slice, star, paren and type-assert
// chains to the base identifier of an lvalue-ish expression: rootIdent
// of s.mu, x.M[k], (*p).f, xs[i:j] is s, x, p, xs. It returns nil when
// the base is not a plain identifier (a call result, a composite
// literal, ...).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// identObj resolves an identifier to the object it uses or defines.
func identObj(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// pkgFuncCall reports whether call invokes the function named fn from the
// package with the given import path (e.g. "fmt", "Errorf"), resolving
// the receiver identifier through the type checker so local shadowing and
// import renaming are handled correctly.
func pkgFuncCall(info *types.Info, call *ast.CallExpr, pkgPath, fn string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != fn {
		return false
	}
	return selectsPackage(info, sel, pkgPath)
}

// selectsPackage reports whether sel.X is an identifier naming an import
// of pkgPath.
func selectsPackage(info *types.Info, sel *ast.SelectorExpr, pkgPath string) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

// isBuiltinCall reports whether call invokes the builtin with the given
// name (panic, close, recover, ...), i.e. the identifier is not shadowed
// by a local declaration.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// isNamedType reports whether t is the named type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// errorType is the universe's error interface.
var errorType = types.Universe.Lookup("error").Type()

// isErrorValue reports whether an expression of type t can carry an
// error: it is the error interface itself or any type assignable to it.
func isErrorValue(t types.Type) bool {
	return t != nil && types.AssignableTo(t, errorType)
}
