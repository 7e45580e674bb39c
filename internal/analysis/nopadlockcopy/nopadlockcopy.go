// Package nopadlockcopy flags by-value copies of structs that must
// stay put: structs that (transitively) contain a sync primitive, a
// typed sync/atomic value, or a blank cacheline-padding field
// (`_ [N]byte`). Copying a mutex forks its state; copying an atomic
// field tears its publication contract; copying a padded struct
// silently discards the false-sharing layout the padding paid for —
// the copy lands wherever the destination is, re-sharing the line.
//
// go vet's copylocks already rejects copies of Locker-bearing values;
// this check is the repo-aware superset that also covers pad-only
// structs (obs.Histogram-style counter blocks, barrier stripes)
// and reports the reason the type is pinned.
//
// Flagged copy sites: assignments and declarations whose source is an
// existing value (identifier, field, element, or dereference), call
// arguments, return values, by-value range over a slice or array of
// pinned structs, and by-value receivers, parameters, and results in
// function signatures.
package nopadlockcopy

import (
	"go/ast"
	"go/types"

	"pphcr/internal/analysis"
)

// Analyzer is the nopadlockcopy analysis.
var Analyzer = &analysis.Analyzer{
	Name: "nopadlockcopy",
	Doc: "cacheline-padded, mutex-bearing, or atomic-bearing structs " +
		"must never be copied by value",
	Run: run,
}

type checker struct {
	pass *analysis.Pass
	memo map[types.Type]string
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, memo: make(map[types.Type]string)}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				c.checkSignature(x)
			case *ast.AssignStmt:
				c.checkAssign(x)
			case *ast.ValueSpec:
				for _, v := range x.Values {
					c.checkValueExpr(v, "assigned")
				}
			case *ast.CallExpr:
				for _, a := range x.Args {
					c.checkValueExpr(a, "passed")
				}
			case *ast.ReturnStmt:
				for _, r := range x.Results {
					c.checkValueExpr(r, "returned")
				}
			case *ast.RangeStmt:
				c.checkRange(x)
			}
			return true
		})
	}
	return nil
}

// checkSignature flags by-value receivers, parameters, and results of
// pinned struct types.
func (c *checker) checkSignature(fd *ast.FuncDecl) {
	check := func(fl *ast.FieldList, role string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			t := c.pass.TypesInfo.TypeOf(field.Type)
			if t == nil {
				continue
			}
			if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
				continue
			}
			if why := c.pinned(t); why != "" {
				c.pass.Reportf(field.Type.Pos(),
					"%s takes %s by value as a %s; it contains %s and must be passed by pointer",
					fd.Name.Name, c.typeName(t), role, why)
			}
		}
	}
	check(fd.Recv, "receiver")
	check(fd.Type.Params, "parameter")
	check(fd.Type.Results, "result")
}

func (c *checker) checkAssign(a *ast.AssignStmt) {
	if len(a.Lhs) == 1 {
		if id, ok := analysis.Unparen(a.Lhs[0]).(*ast.Ident); ok && id.Name == "_" {
			return // _ = x is a use marker, not a live copy
		}
	}
	for _, r := range a.Rhs {
		c.checkValueExpr(r, "assigned")
	}
}

// checkValueExpr flags e when it reads an existing pinned value out of
// a variable, field, element, or pointer — the copy sites. Composite
// literals and call results are construction, not copies of a value
// someone else may hold a pointer into.
func (c *checker) checkValueExpr(e ast.Expr, verb string) {
	switch analysis.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return
	}
	t := c.pass.TypesInfo.TypeOf(e)
	if t == nil {
		return
	}
	if why := c.pinned(t); why != "" {
		c.pass.Reportf(e.Pos(),
			"%s %s by value; it contains %s and must be handled by pointer",
			c.typeName(t), verb, why)
	}
}

// checkRange flags `for _, v := range xs` when the element type is
// pinned: every iteration copies one element into v.
func (c *checker) checkRange(r *ast.RangeStmt) {
	if r.Value == nil {
		return
	}
	if id, ok := r.Value.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	t := c.pass.TypesInfo.TypeOf(r.Value)
	if t == nil {
		return
	}
	if why := c.pinned(t); why != "" {
		c.pass.Reportf(r.Value.Pos(),
			"ranging copies %s elements by value; they contain %s — range over indices instead",
			c.typeName(t), why)
	}
}

// pinned returns the reason t must not be copied, or "".
func (c *checker) pinned(t types.Type) string {
	if why, ok := c.memo[t]; ok {
		return why
	}
	c.memo[t] = "" // cut self-recursion; structs cannot contain themselves by value anyway
	why := c.reason(t)
	c.memo[t] = why
	return why
}

func (c *checker) reason(t types.Type) string {
	switch u := t.(type) {
	case *types.Named:
		obj := u.Obj()
		if obj != nil && obj.Pkg() != nil {
			switch obj.Pkg().Path() {
			case "sync":
				if obj.Name() != "Locker" {
					return "a sync." + obj.Name()
				}
				return ""
			case "sync/atomic":
				return "an atomic." + obj.Name()
			}
		}
		return c.pinned(u.Underlying())
	case *types.Array:
		return c.pinned(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if f.Name() == "_" {
				if arr, ok := f.Type().Underlying().(*types.Array); ok {
					if b, ok := arr.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.Byte {
						return "cacheline padding"
					}
				}
				continue
			}
			if why := c.pinned(f.Type()); why != "" {
				return why
			}
		}
	}
	return ""
}

func (c *checker) typeName(t types.Type) string {
	if n, ok := t.(*types.Named); ok && n.Obj() != nil {
		return n.Obj().Name()
	}
	return "struct"
}
