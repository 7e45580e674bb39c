package analysis

import (
	"go/ast"
	"go/types"
)

// Deref removes one level of pointer indirection.
func Deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// NamedOwner resolves the named type behind t (through one pointer),
// returning its package name and type name, or ok=false for unnamed
// types.
func NamedOwner(t types.Type) (pkgName, typeName string, ok bool) {
	if t == nil {
		return "", "", false
	}
	n, isNamed := Deref(t).(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := n.Obj()
	if obj == nil {
		return "", "", false
	}
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Name()
	}
	return pkg, obj.Name(), true
}

// Unparen strips parentheses.
func Unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// SelectedField returns the field object a selector expression resolves
// to, or nil when it is not a struct field selection.
func (p *Pass) SelectedField(sel *ast.SelectorExpr) *types.Var {
	if s, ok := p.TypesInfo.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}

// CalleeMethod splits a call of the form recv.Method(...) into the
// selector and the receiver expression; ok is false for plain calls.
func CalleeMethod(call *ast.CallExpr) (sel *ast.SelectorExpr, recv ast.Expr, ok bool) {
	s, isSel := Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, nil, false
	}
	return s, s.X, true
}
