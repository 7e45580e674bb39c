// Package itemcategories keeps content.Item.Categories input only. The
// content repository reads an item's Categories map once, in Add, and
// keeps the distribution as flat pairs; the item it hands out has
// Categories nil. Outside internal/content the field may therefore be
// written — a composite-literal key, an assignment's target — but a
// read is a bug waiting for a catalog item: it sees nil where the item
// has categories. Read an item's categories with Item.Weights or
// Item.Weight, which serve both the items never added and the catalog's.
package itemcategories

import (
	"go/ast"
	"go/token"
	"go/types"

	"pphcr/internal/analysis"
)

// Analyzer is the itemcategories analysis.
var Analyzer = &analysis.Analyzer{
	Name: "itemcategories",
	Doc: "content.Item.Categories is input only: outside internal/content " +
		"it may be written but not read; read an item's categories with Weights or Weight",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		writes := map[*ast.SelectorExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				// Inspect visits the statement before its operands, so
				// a target is marked before its selector is seen.
				if x.Tok == token.ASSIGN {
					for _, l := range x.Lhs {
						if sel, ok := analysis.Unparen(l).(*ast.SelectorExpr); ok {
							writes[sel] = true
						}
					}
				}
			case *ast.SelectorExpr:
				if !writes[x] && isItemCategories(pass, x) {
					pass.Reportf(x.Sel.Pos(), "content.Item.Categories read outside internal/content; "+
						"it is nil on a catalog item: read the categories with Weights or Weight")
				}
			}
			return true
		})
	}
	return nil
}

// isItemCategories reports whether sel selects the Categories field of
// package content's Item, from a package other than content.
func isItemCategories(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal || s.Obj().Name() != "Categories" {
		return false
	}
	pkg := s.Obj().Pkg()
	if pkg == nil || pkg.Name() != "content" || pkg == pass.Pkg {
		return false
	}
	item, ok := pkg.Scope().Lookup("Item").(*types.TypeName)
	if !ok {
		return false
	}
	st, ok := item.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) == s.Obj() {
			return true
		}
	}
	return false
}
