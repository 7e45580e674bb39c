package suite_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pphcr/internal/analysis"
)

// oracles are kept although no binary reaches them: reference
// implementations and discipline checks that tests compare against.
// Each is a root of the scan, so what it calls stays too. A key is an
// import path, or an import path and a declaration ("path.Name",
// "path.Type.Method"). An entry that another root already reaches is
// refused, so the list cannot outlive its reason.
var oracles = map[string]string{
	"pphcr/internal/tracking/trackingtest":            "fold and stay-point oracles: the full recompaction, breadth-first DBSCAN over spatial.Grid",
	"pphcr/internal/analysis/analysistest":            "the analyzers' fixture harness, with analysis.CheckSource",
	"pphcr/internal/feedback.Store.PreferencesReplay": "oracle for the incremental preference index",
	"pphcr/internal/tracking.Tracker.Trace":           "the unfolded suffix the fold and recovery tests compare",
	"pphcr/internal/tracking.Tracker.Compact":         "the whole-history compaction the fold tests run",
	"pphcr/internal/core.Planner.Plan":                "the exhaustive planner the bounded selection must equal",
	"pphcr/internal/scenario.HashEvents":              "seeded-determinism check: same seed, same events",
	"pphcr/internal/scenario.Script.ExpectedEvents":   "zero-loss check: what a script must have written",
	"pphcr/internal/scenario.Engine.Acks":             "zero-loss check: what the engine saw acknowledged",
	"pphcr/internal/textclass.NaiveBayes.Evaluate":    "accuracy of the classifier ingestion runs",
}

// stdInterfaceMethods are the methods of standard-library interfaces
// the repository's types satisfy; a reached type keeps them.
var stdInterfaceMethods = []string{
	"Error", "Unwrap", "String", // error, fmt.Stringer
	"ServeHTTP", "Header", "Write", "WriteHeader", "Flush", // http.Handler, http.ResponseWriter, io.Writer, http.Flusher
	"Len", "Less", "Swap", "Push", "Pop", // sort.Interface, heap.Interface
	"Import",      // types.Importer
	"MarshalJSON", // json.Marshaler
}

// TestEveryDeclarationIsReached fails with the position of every
// package-level declaration of the module that no binary reaches. The
// roots are main and init in cmd/*, examples/* and bench/, plus the
// oracles above. A declaration is reached when a reached declaration
// names it; a method is reached too when its receiver type is reached
// and its name belongs to an interface.
func TestEveryDeclarationIsReached(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	g := newDeclGraph()
	for _, dir := range []string{root, filepath.Join(root, "bench")} {
		pkgs, err := analysis.Load(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkgs {
			g.add(p)
		}
	}

	var binaries []string
	seeds := make(map[string][]string) // oracle → the declarations it roots
	for k, d := range g.decls {
		if d.main && (d.name == "main" || d.name == "init") {
			binaries = append(binaries, k)
		}
		for _, o := range []string{k, d.pkg} {
			if _, ok := oracles[o]; ok {
				seeds[o] = append(seeds[o], k)
			}
		}
	}

	all := append([]string(nil), binaries...)
	for _, s := range seeds {
		all = append(all, s...)
	}
	reached := g.reach(all)
	var dead []string
	for k, d := range g.decls {
		if !reached[k] && !inBench(d.pkg) {
			dead = append(dead, d.pos.String()+": "+k)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no binary reaches %s", d)
	}

	for o := range oracles {
		if len(seeds[o]) == 0 {
			t.Errorf("oracle %s is not declared", o)
			continue
		}
		others := append([]string(nil), binaries...)
		for other, s := range seeds {
			if other != o {
				others = append(others, s...)
			}
		}
		without := g.reach(others)
		redundant := true
		for _, k := range seeds[o] {
			redundant = redundant && without[k]
		}
		if redundant {
			t.Errorf("oracle %s is reached without its entry: drop it", o)
		}
	}
}

func inBench(pkg string) bool {
	return pkg == "pphcr/bench" || strings.HasPrefix(pkg, "pphcr/bench/")
}

// declNode is one package-level declaration and what it names.
type declNode struct {
	pkg  string
	name string // the declared name; for a method, the method's name
	main bool   // declared in a main package
	pos  token.Position
	refs []string
}

// declGraph holds the declarations of every loaded package by key.
type declGraph struct {
	decls        map[string]*declNode
	methods      map[string][]string // type key → its method keys
	ifaceMethods map[string]bool
}

func newDeclGraph() *declGraph {
	g := &declGraph{
		decls:        make(map[string]*declNode),
		methods:      make(map[string][]string),
		ifaceMethods: make(map[string]bool),
	}
	for _, m := range stdInterfaceMethods {
		g.ifaceMethods[m] = true
	}
	return g
}

// reach returns every declaration the roots reach.
func (g *declGraph) reach(roots []string) map[string]bool {
	reached := make(map[string]bool)
	work := append([]string(nil), roots...)
	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		d := g.decls[k]
		if d == nil || reached[k] {
			continue
		}
		reached[k] = true
		work = append(work, d.refs...)
		// A reached type keeps the methods an interface can call.
		for _, m := range g.methods[k] {
			if g.ifaceMethods[g.decls[m].name] {
				work = append(work, m)
			}
		}
	}
	return reached
}

// objKey names a package-level object or a method across packages:
// export data and source give the same object different identities.
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return obj.Pkg().Path() + "." + n.Origin().Obj().Name() + "." + obj.Name()
			}
			return "" // an interface method
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "" // local, a field, or a parameter
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func (g *declGraph) add(p *analysis.Package) {
	isMain := p.Types.Name() == "main"
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, name := range m.Names {
						g.ifaceMethods[name.Name] = true
					}
				}
			}
			return true
		})
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				k := objKey(p.Info.Defs[d.Name])
				if d.Name.Name == "init" {
					k = p.ImportPath + ".init"
				}
				g.declare(p, k, d.Name, d, isMain)
				if d.Recv != nil && k != "" {
					typ := k[:strings.LastIndexByte(k, '.')]
					g.methods[typ] = append(g.methods[typ], k)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						g.declare(p, objKey(p.Info.Defs[s.Name]), s.Name, s, isMain)
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if name.Name != "_" {
								g.declare(p, objKey(p.Info.Defs[name]), name, s, isMain)
							}
						}
					}
				}
			}
		}
	}
}

func (g *declGraph) declare(p *analysis.Package, key string, name *ast.Ident, node ast.Node, isMain bool) {
	if key == "" {
		return
	}
	d := &declNode{pkg: p.ImportPath, name: name.Name, main: isMain, pos: p.Fset.Position(name.Pos())}
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id != name {
			if obj := p.Info.Uses[id]; obj != nil {
				if fn, ok := obj.(*types.Func); ok {
					obj = fn.Origin()
				}
				if k := objKey(obj); k != "" && k != key {
					d.refs = append(d.refs, k)
				}
			}
		}
		return true
	})
	g.decls[key] = d
}
