// Package mutateemit enforces the durability contract of the System
// write path (docs/durability.md): a write is checked, logged, then
// applied, all in one function, and the WAL record that replays it is
// emitted inside the shard-lock critical section that applies it, under
// a commit-barrier stripe, at most once.
//
// Concretely:
//
//   - emit is called from the System's write method only — a second
//     place that emits is a second write choreography, free to apply
//     before it logs;
//   - inside write, no call of its apply parameter comes before the
//     emit — a write the log refuses must change nothing, or memory
//     holds a state that recovery and every follower lack;
//
// and at every call to emit:
//
//   - the user-shard lock (or the ingest mutex, for the userless ingest
//     path) must be held — emitting outside the critical section lets a
//     racing same-user mutation reach the WAL out of apply order, which
//     makes the log unreplayable;
//   - a commit-barrier stripe must be held — otherwise a checkpoint
//     quiesce can slice between apply and emit and snapshot a state the
//     WAL position does not match;
//   - a second emit before the shard unlock is flagged: one mutation,
//     one record.
//
// The walk is linear in source order within each function; calls inside
// defer statements and function literals are ignored (a deferred
// runlock releases at return, not at its textual position).
package mutateemit

import (
	"go/ast"
	"go/token"
	"go/types"

	"pphcr/internal/analysis"
)

// Analyzer is the mutateemit analysis.
var Analyzer = &analysis.Analyzer{
	Name: "mutateemit",
	Doc: "System writes go through one write function that emits its WAL " +
		"record before it applies, inside the shard-lock critical section, " +
		"under a barrier stripe, exactly once",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// event is one lock or emit operation at a source position.
type event struct {
	pos  token.Pos
	kind int
}

const (
	evBarrierAcquire = iota
	evBarrierRelease
	evShardAcquire
	evShardRelease
	evIngestAcquire
	evIngestRelease
	evEmit
)

// writeFunc is the name of the System's one write path: the only method
// that may call emit, and whose apply parameter runs after the emit.
const writeFunc = "write"

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	isWrite := fd.Name.Name == writeFunc && fd.Recv != nil && len(fd.Recv.List) == 1 &&
		isSystemShaped(pass.TypesInfo.TypeOf(fd.Recv.List[0].Type))
	if isWrite {
		checkApplyOrder(pass, fd)
	}
	var events []event
	collect(pass, fd.Body, &events)

	hasEmit := false
	for _, e := range events {
		if e.kind == evEmit {
			hasEmit = true
			break
		}
	}
	if !hasEmit {
		return
	}

	var (
		barrierDepth int
		shardHeld    bool
		ingestHeld   bool
		emitted      bool
	)
	for _, e := range events {
		switch e.kind {
		case evBarrierAcquire:
			barrierDepth++
		case evBarrierRelease:
			if barrierDepth > 0 {
				barrierDepth--
			}
		case evShardAcquire:
			shardHeld, emitted = true, false
		case evShardRelease:
			shardHeld, emitted = false, false
		case evIngestAcquire:
			ingestHeld, emitted = true, false
		case evIngestRelease:
			ingestHeld, emitted = false, false
		case evEmit:
			if !isWrite {
				pass.Reportf(e.pos,
					"WAL emit outside System.%s: every write is checked, logged and applied by the one write path", writeFunc)
			}
			if !shardHeld && !ingestHeld {
				pass.Reportf(e.pos,
					"WAL emit outside the shard/ingest critical section: apply and emit must share one lock hold, or replay order diverges from apply order")
			}
			if barrierDepth == 0 {
				pass.Reportf(e.pos,
					"WAL emit without the commit-barrier stripe held: a checkpoint quiesce can snapshot between apply and emit")
			}
			if emitted {
				pass.Reportf(e.pos,
					"second WAL emit in one critical section: one mutation, one record")
			}
			emitted = true
		}
	}
}

// checkApplyOrder reports every call of write's apply parameter that
// comes before the first emit in source order, or that has no emit
// before it at all. Unlike the lock walk it looks inside the terminating
// if bodies too: an apply on an early-return path is still an apply.
func checkApplyOrder(pass *analysis.Pass, fd *ast.FuncDecl) {
	var apply types.Object
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if name.Name == "apply" {
				apply = pass.TypesInfo.Defs[name]
			}
		}
	}
	if apply == nil {
		return
	}
	firstEmit := token.NoPos
	var applies []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if e, ok := classify(pass, x); ok && e.kind == evEmit && (firstEmit == token.NoPos || e.pos < firstEmit) {
				firstEmit = e.pos
			}
			if id, ok := analysis.Unparen(x.Fun).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == apply {
				applies = append(applies, x.Pos())
			}
		}
		return true
	})
	for _, pos := range applies {
		if firstEmit == token.NoPos || pos < firstEmit {
			pass.Reportf(pos,
				"apply before the WAL emit: a write the log refuses must change nothing, so apply runs only after emit returned")
		}
	}
}

// collect gathers lock/emit events in source order, skipping defer
// statements, function literals, and — crucially — the bodies of if
// statements that terminate (end in return or panic): those are the
// early-error cleanup paths, and their unlocks never execute on the
// fall-through path the linear walk models.
func collect(pass *analysis.Pass, body *ast.BlockStmt, events *[]event) {
	skip := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if ifs, ok := n.(*ast.IfStmt); ok && terminates(ifs.Body.List) {
			skip[ifs.Body] = true
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		if skip[n] {
			return false
		}
		switch x := n.(type) {
		case *ast.DeferStmt, *ast.FuncLit, *ast.GoStmt:
			_ = x
			return false
		case *ast.CallExpr:
			if e, ok := classify(pass, x); ok {
				*events = append(*events, e)
			}
		}
		return true
	})
}

// terminates reports whether a statement list always leaves the
// function (return or panic at its end).
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch st := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		return true
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

// classify maps a call to a mutateemit event, keying on the repo's
// durable-write vocabulary: the emit / lockShard / rlockShard methods
// of a System-shaped type (one with SetMutationHook and a shards
// field), the rlock / runlock methods of commitBarrier, the userShard
// mutex, and the ingestMu field.
func classify(pass *analysis.Pass, call *ast.CallExpr) (event, bool) {
	sel, recv, ok := analysis.CalleeMethod(call)
	if !ok {
		return event{}, false
	}
	name := sel.Sel.Name
	recvType := pass.TypesInfo.TypeOf(recv)

	if isSystemShaped(recvType) {
		switch name {
		case "emit":
			return event{pos: call.Pos(), kind: evEmit}, true
		case "lockShard", "rlockShard":
			return event{pos: call.Pos(), kind: evShardAcquire}, true
		}
		return event{}, false
	}

	if pkg, typ, ok := analysis.NamedOwner(recvType); ok && pkg == "pphcr" && typ == "commitBarrier" {
		switch name {
		case "rlock":
			return event{pos: call.Pos(), kind: evBarrierAcquire}, true
		case "runlock":
			return event{pos: call.Pos(), kind: evBarrierRelease}, true
		}
		return event{}, false
	}

	// Primitive mutex calls: userShard.mu and System.ingestMu.
	if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
		fieldSel, ok := analysis.Unparen(recv).(*ast.SelectorExpr)
		if !ok {
			return event{}, false
		}
		ownerType := pass.TypesInfo.TypeOf(fieldSel.X)
		pkg, typ, named := analysis.NamedOwner(ownerType)
		switch {
		case named && pkg == "pphcr" && typ == "userShard" && fieldSel.Sel.Name == "mu":
			switch name {
			case "Lock", "RLock":
				return event{pos: call.Pos(), kind: evShardAcquire}, true
			case "Unlock", "RUnlock":
				return event{pos: call.Pos(), kind: evShardRelease}, true
			}
		case isSystemShaped(ownerType) && fieldSel.Sel.Name == "ingestMu":
			switch name {
			case "Lock":
				return event{pos: call.Pos(), kind: evIngestAcquire}, true
			case "Unlock":
				return event{pos: call.Pos(), kind: evIngestRelease}, true
			}
		}
	}
	return event{}, false
}

// isSystemShaped reports whether t (through one pointer) is a named
// type carrying both a SetMutationHook method and a shards field — the
// structural signature of the durable System.
func isSystemShaped(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := analysis.Deref(t).(*types.Named)
	if !ok {
		return false
	}
	if m, _, _ := types.LookupFieldOrMethod(n, true, n.Obj().Pkg(), "SetMutationHook"); m == nil {
		return false
	}
	f, _, _ := types.LookupFieldOrMethod(n, true, n.Obj().Pkg(), "shards")
	v, ok := f.(*types.Var)
	return ok && v.IsField()
}
