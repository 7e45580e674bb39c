// Package lockorder flags acquisitions that invert the repo's
// documented lock hierarchies (docs/analysis.md, docs/durability.md):
//
//	pphcr:     Durability.mu → commit barrier stripe → user shard → store
//	plancache: shard.mu → shard.genMu
//	durable:   WAL.ioMu → WAL.mu → WAL.commitMu
//
// Within one hierarchy a function may only acquire downward (toward
// higher levels) while holding a lock, and may never hold two sibling
// locks of the same level at once — except via the lock-all loop idiom
// (quiesce), which the analyzer recognizes as a `for` loop
// that net-acquires its class and therefore holds stripes in index
// order by construction.
//
// The analysis is intraprocedural and path-insensitive: branches merge
// to the intersection of their held sets (so a conditional unlock never
// fabricates a held lock), branches that terminate (return/panic) do
// not flow onward, and TryLock/TryRLock inside an if condition is
// treated as not acquiring (both canonical idioms — try-then-block and
// try-fast-path-return — re-acquire on the path that continues).
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"pphcr/internal/analysis"
)

// Analyzer is the lockorder analysis.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "check lock acquisitions against the documented hierarchies " +
		"(barrier → shard → store; ioMu → queue → commit) and forbid sibling " +
		"shard locks outside the lock-all quiesce idiom",
	Run: run,
}

// class is one rung of a hierarchy. Ordering constraints apply only
// within a domain; locks of different domains are independent.
type class struct {
	domain string
	level  int
	name   string
	order  string // the documented order, quoted in messages
}

const (
	orderPphcr     = "Durability.mu → barrier → shard → store"
	orderPlancache = "shard.mu → genMu"
	orderWAL       = "ioMu → mu → commitMu"
	orderReplicate = "Router.mu → nodeState.mu → Standby.mu"
)

// key identifies a lock by the package name and type that own it plus
// the member through which it is acquired (mutex field, or a lock
// method of the owning type).
type key struct{ pkg, typ, member string }

var (
	clsCheckpoint = class{"pphcr", 5, "checkpoint mutex (Durability.mu)", orderPphcr}
	clsBarrier    = class{"pphcr", 10, "commit barrier stripe", orderPphcr}
	clsShard      = class{"pphcr", 20, "user-shard lock", orderPphcr}
	clsIngest     = class{"pphcr", 20, "ingest mutex", orderPphcr}
	clsStore      = class{"pphcr", 30, "store lock", orderPphcr}

	clsPCShard = class{"plancache", 10, "plan-cache shard lock", orderPlancache}
	clsPCGen   = class{"plancache", 20, "plan-cache generation lock", orderPlancache}

	clsWALIO     = class{"wal", 10, "WAL io mutex", orderWAL}
	clsWALQueue  = class{"wal", 20, "WAL staging queue mutex", orderWAL}
	clsWALCommit = class{"wal", 30, "WAL commit mutex", orderWAL}

	// Replication locks. The router holds its topology lock while taking
	// per-partition state locks (stats, reload), never the reverse.
	// Standby.mu is a leaf by design: it is always released before
	// ApplyReplicated calls into the pphcr lock domain, so the apply path
	// can never deadlock against the shipping bookkeeping.
	clsReplRouter  = class{"replicate", 10, "router topology lock (Router.mu)", orderReplicate}
	clsReplNode    = class{"replicate", 20, "partition state lock (nodeState.mu)", orderReplicate}
	clsReplStandby = class{"replicate", 30, "standby apply lock (Standby.mu)", orderReplicate}
)

// fieldClasses maps mutex-valued fields to their class; the lock is
// acquired via field.Lock()/RLock() and released via the Unlock pair.
var fieldClasses = map[key]class{
	{"pphcr", "Durability", "mu"}:    clsCheckpoint,
	{"pphcr", "barrierStripe", "mu"}: clsBarrier,
	{"pphcr", "userShard", "mu"}:     clsShard,
	{"pphcr", "System", "ingestMu"}:  clsIngest,

	{"profile", "Store", "mu"}:      clsStore,
	{"feedback", "Store", "mu"}:     clsStore,
	{"tracking", "Tracker", "mu"}:   clsStore,
	{"content", "Repository", "mu"}: clsStore,
	{"radiodns", "Directory", "mu"}: clsStore,
	{"plancache", "shard", "mu"}:    clsPCShard,
	{"plancache", "shard", "genMu"}: clsPCGen,
	{"durable", "WAL", "ioMu"}:      clsWALIO,
	{"durable", "WAL", "mu"}:        clsWALQueue,
	{"durable", "WAL", "commitMu"}:  clsWALCommit,

	{"replicate", "Router", "mu"}:    clsReplRouter,
	{"replicate", "nodeState", "mu"}: clsReplNode,
	{"replicate", "Standby", "mu"}:   clsReplStandby,
}

// methodOp describes a lock-wrapping method of an owning type.
type methodOp struct {
	cls     class
	acquire bool // else release
	all     bool // quiesce-style: every sibling at once
	// wrapsFn: the method runs its func-literal argument with cls held
	// (checkpointBarrier); neither an acquire nor a release at the call
	// site.
	wrapsFn bool
}

var methodClasses = map[key]methodOp{
	{"pphcr", "commitBarrier", "rlock"}:   {cls: clsBarrier, acquire: true},
	{"pphcr", "commitBarrier", "runlock"}: {cls: clsBarrier},
	{"pphcr", "commitBarrier", "quiesce"}: {cls: clsBarrier, acquire: true, all: true},
	{"pphcr", "commitBarrier", "release"}: {cls: clsBarrier, all: true},
	{"pphcr", "System", "lockShard"}:      {cls: clsShard, acquire: true},
	{"pphcr", "System", "rlockShard"}:     {cls: clsShard, acquire: true},
	{"pphcr", "System", "checkpointBarrier"}: {
		cls: clsBarrier, all: true, wrapsFn: true,
	},
}

// held is one acquired lock on the abstract stack.
type held struct {
	cls class
	all bool
	pos token.Pos
}

type checker struct {
	pass *analysis.Pass
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.stmts(fd.Body.List, nil)
			}
		}
	}
	return nil
}

// stmts runs the abstract lock-state machine over a statement list and
// returns the held set at its end.
func (c *checker) stmts(list []ast.Stmt, h []held) []held {
	for _, s := range list {
		var term bool
		h, term = c.stmt(s, h)
		if term {
			break
		}
	}
	return h
}

// stmt advances the state over one statement; term reports that control
// does not continue past it (return, panic, break, continue).
func (c *checker) stmt(s ast.Stmt, h []held) (out []held, term bool) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		return c.expr(st.X, h, false), false
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			h = c.expr(r, h, false)
		}
		return h, false
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						h = c.expr(v, h, false)
					}
				}
			}
		}
		return h, false
	case *ast.IfStmt:
		if st.Init != nil {
			h, _ = c.stmt(st.Init, h)
		}
		h = c.expr(st.Cond, h, true)
		thenH := c.stmts(st.Body.List, clone(h))
		thenTerm := terminates(st.Body.List)
		var elseH []held
		elseTerm := false
		switch e := st.Else.(type) {
		case *ast.BlockStmt:
			elseH = c.stmts(e.List, clone(h))
			elseTerm = terminates(e.List)
		case *ast.IfStmt:
			eh, et := c.stmt(e, clone(h))
			elseH, elseTerm = eh, et
		default:
			elseH = clone(h)
		}
		switch {
		case thenTerm && elseTerm:
			return h, false
		case thenTerm:
			return elseH, false
		case elseTerm:
			return thenH, false
		default:
			return intersect(thenH, elseH), false
		}
	case *ast.ForStmt:
		if st.Init != nil {
			h, _ = c.stmt(st.Init, h)
		}
		if st.Cond != nil {
			h = c.expr(st.Cond, h, false)
		}
		body := c.stmts(st.Body.List, clone(h))
		return loopResult(h, body), false
	case *ast.RangeStmt:
		h = c.expr(st.X, h, false)
		body := c.stmts(st.Body.List, clone(h))
		return loopResult(h, body), false
	case *ast.BlockStmt:
		return c.stmts(st.List, h), false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return c.branches(s, h), false
	case *ast.GoStmt:
		// A goroutine starts with no inherited lock state; its body is
		// checked independently.
		if fl, ok := analysis.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
			c.stmts(fl.Body.List, nil)
		}
		return h, false
	case *ast.DeferStmt:
		// Deferred releases run at exit; for forward ordering the lock
		// simply stays held. A deferred func literal is checked with the
		// current state (it runs while everything now held may still be).
		if fl, ok := analysis.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
			c.stmts(fl.Body.List, clone(h))
		}
		return h, false
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			h = c.expr(r, h, false)
		}
		return h, true
	case *ast.BranchStmt:
		return h, st.Tok == token.BREAK || st.Tok == token.CONTINUE
	case *ast.LabeledStmt:
		return c.stmt(st.Stmt, h)
	default:
		return h, false
	}
}

// branches merges the non-terminating arms of a switch/select.
func (c *checker) branches(s ast.Stmt, h []held) []held {
	var bodies [][]ast.Stmt
	switch st := s.(type) {
	case *ast.SwitchStmt:
		if st.Init != nil {
			h, _ = c.stmt(st.Init, h)
		}
		if st.Tag != nil {
			h = c.expr(st.Tag, h, false)
		}
		for _, cc := range st.Body.List {
			bodies = append(bodies, cc.(*ast.CaseClause).Body)
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range st.Body.List {
			bodies = append(bodies, cc.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, cc := range st.Body.List {
			bodies = append(bodies, cc.(*ast.CommClause).Body)
		}
	}
	out := h
	first := true
	for _, b := range bodies {
		bh := c.stmts(b, clone(h))
		if terminates(b) {
			continue
		}
		if first {
			out, first = bh, false
		} else {
			out = intersect(out, bh)
		}
	}
	return out
}

// expr scans an expression for lock operations. inCond marks an if
// condition, where Try(R)Lock is conditional and therefore not treated
// as an acquisition.
func (c *checker) expr(e ast.Expr, h []held, inCond bool) []held {
	switch x := e.(type) {
	case nil:
		return h
	case *ast.CallExpr:
		op, cls, try, classified := c.classify(x)
		for _, a := range x.Args {
			// A func literal handed to a wrapping method is analyzed only
			// under the wrapped lock state, not also as a free literal.
			if _, isLit := analysis.Unparen(a).(*ast.FuncLit); isLit && classified && op == opWraps {
				continue
			}
			h = c.expr(a, h, inCond)
		}
		if classified {
			if try && inCond {
				return h
			}
			switch op {
			case opAcquire:
				return c.acquire(h, cls, false, x.Pos())
			case opAcquireAll:
				return c.acquire(h, cls, true, x.Pos())
			case opRelease:
				return release(h, cls)
			case opWraps:
				for _, a := range x.Args {
					if fl, ok := analysis.Unparen(a).(*ast.FuncLit); ok {
						c.stmts(fl.Body.List, c.acquire(clone(h), cls, true, x.Pos()))
					}
				}
				return h
			}
		}
		return c.expr(x.Fun, h, inCond)
	case *ast.ParenExpr:
		return c.expr(x.X, h, inCond)
	case *ast.UnaryExpr:
		return c.expr(x.X, h, inCond)
	case *ast.BinaryExpr:
		h = c.expr(x.X, h, inCond)
		return c.expr(x.Y, h, inCond)
	case *ast.FuncLit:
		// A func literal that is not directly a go/defer/wrap target is
		// checked independently: when it runs is unknown.
		c.stmts(x.Body.List, nil)
		return h
	default:
		return h
	}
}

type op int

const (
	opAcquire op = iota
	opAcquireAll
	opRelease
	opWraps
)

// classify resolves a call to a lock operation via the field and method
// tables. try marks sync Try(R)Lock acquisitions.
func (c *checker) classify(call *ast.CallExpr) (op, class, bool, bool) {
	sel, recv, ok := analysis.CalleeMethod(call)
	if !ok {
		return 0, class{}, false, false
	}
	method := sel.Sel.Name

	// sync.Mutex / sync.RWMutex primitive on an owner's mutex field.
	if fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
		var acquire, try bool
		switch method {
		case "Lock", "RLock":
			acquire = true
		case "TryLock", "TryRLock":
			acquire, try = true, true
		case "Unlock", "RUnlock":
		default:
			return 0, class{}, false, false
		}
		fieldSel, ok := analysis.Unparen(recv).(*ast.SelectorExpr)
		if !ok {
			return 0, class{}, false, false
		}
		ownerPkg, ownerType, ok := analysis.NamedOwner(c.pass.TypesInfo.TypeOf(fieldSel.X))
		if !ok {
			return 0, class{}, false, false
		}
		cls, ok := fieldClasses[key{ownerPkg, ownerType, fieldSel.Sel.Name}]
		if !ok {
			return 0, class{}, false, false
		}
		if acquire {
			return opAcquire, cls, try, true
		}
		return opRelease, cls, false, true
	}

	// Lock-wrapping method of an owning type.
	ownerPkg, ownerType, ok := analysis.NamedOwner(c.pass.TypesInfo.TypeOf(recv))
	if !ok {
		return 0, class{}, false, false
	}
	mo, ok := methodClasses[key{ownerPkg, ownerType, method}]
	if !ok {
		return 0, class{}, false, false
	}
	switch {
	case mo.wrapsFn:
		return opWraps, mo.cls, false, true
	case mo.acquire && mo.all:
		return opAcquireAll, mo.cls, false, true
	case mo.acquire:
		return opAcquire, mo.cls, false, true
	default:
		return opRelease, mo.cls, false, true
	}
}

// acquire checks the new lock against everything held and pushes it.
func (c *checker) acquire(h []held, cls class, all bool, pos token.Pos) []held {
	for _, hl := range h {
		if hl.cls.domain != cls.domain {
			continue
		}
		if hl.cls.level > cls.level {
			c.pass.Reportf(pos,
				"lock order inversion: acquiring %s while holding %s (%s); the documented order is %s",
				cls.name, hl.cls.name, c.pass.Fset.Position(hl.pos), cls.order)
		} else if hl.cls.level == cls.level {
			c.pass.Reportf(pos,
				"sibling lock: acquiring %s while %s is already held (%s); only the lock-all quiesce/drain loop may hold siblings",
				cls.name, hl.cls.name, c.pass.Fset.Position(hl.pos))
		}
	}
	return append(h, held{cls: cls, all: all, pos: pos})
}

// release pops the most recent held lock of the class (no-op when the
// class is not held — the lock was acquired by a caller).
func release(h []held, cls class) []held {
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].cls == cls {
			return append(append([]held(nil), h[:i]...), h[i+1:]...)
		}
	}
	return h
}

// loopResult folds a loop body's exit state into the continuation:
// locks the body net-acquired become held-all (the lock-all idiom —
// index order makes siblings safe); locks it net-released stay
// released.
func loopResult(before, after []held) []held {
	pre := make(map[token.Pos]bool, len(before))
	for _, hl := range before {
		pre[hl.pos] = true
	}
	out := clone(after)
	for i := range out {
		if !pre[out[i].pos] {
			out[i].all = true
		}
	}
	return out
}

func clone(h []held) []held { return append([]held(nil), h...) }

// intersect merges two branch exits: a lock survives only if both
// branches still hold it (matching by acquisition site).
func intersect(a, b []held) []held {
	inB := make(map[token.Pos]bool, len(b))
	for _, hl := range b {
		inB[hl.pos] = true
	}
	var out []held
	for _, hl := range a {
		if inB[hl.pos] {
			out = append(out, hl)
		}
	}
	return out
}

// terminates reports whether a statement list always leaves the
// enclosing control flow (return/panic/break/continue at its end).
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch st := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return st.Tok == token.BREAK || st.Tok == token.CONTINUE || st.Tok == token.GOTO
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := analysis.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(st.List)
	}
	return false
}
