package analysis

import (
	"go/ast"
	"go/types"
)

// SendLock guards against the deadlock shape the gateway's shardMsg path
// is one missing escape case away from: a blocking channel send (or a
// WaitGroup/Cond Wait) executed while a mutex is held. Under
// backpressure the send blocks; every other goroutine that needs the
// mutex then blocks behind it — including, in the worst shape, the very
// consumer that would have drained the channel. The repository's
// sanctioned pattern is visible in Gateway.command: sends under stageMu
// are select sends with a ctx.Done() receive alternative, so
// cancellation always unblocks the lock.
//
// Within a held region — the statements between x.Lock()/x.RLock() and
// its straight-line x.Unlock(), or to the end of the statement list when
// the unlock is deferred — three shapes are findings:
//
//   - a bare channel send (`ch <- v`) outside any select,
//   - a select whose cases are all sends with no default: every case
//     can block on a slow consumer, so the select provides no escape,
//   - sync.WaitGroup.Wait or sync.Cond.Wait.
//
// A select send with a receive alternative or a default is exempt, as is
// anything inside a deferred or spawned function (a `go` body does not
// hold the caller's lock; a deferred body mostly runs after the paired
// deferred unlock and its rare LIFO inversions are beyond a lexical
// checker's reach).
var SendLock = &Analyzer{
	Name: "sendlock",
	Doc: "no blocking channel send or WaitGroup/Cond Wait while holding a " +
		"mutex; select sends under a lock need a receive or default escape",
	Run: runSendLock,
}

func runSendLock(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFuncSends(pass, fn.Body)
				}
			case *ast.FuncLit:
				checkFuncSends(pass, fn.Body)
			}
			return true
		})
	}
}

// checkFuncSends scans every statement list of one function body for
// lock acquisitions and audits each held region.
func checkFuncSends(pass *Pass, body *ast.BlockStmt) {
	forEachStmtList(body, func(list []ast.Stmt) {
		for i, st := range list {
			recv, kind, ok := lockStmt(pass, st)
			if !ok {
				continue
			}
			checkHeldRegion(pass, list[i+1:], recv, kind)
		}
	})
}

// checkHeldRegion walks the statements after a lock until the matching
// straight-line release, reporting blocking operations. A deferred
// unlock extends the region to the end of the list (the lock is held for
// the rest of the function's straight line from here).
func checkHeldRegion(pass *Pass, rest []ast.Stmt, recv, kind string) {
	want := unlockName(kind)
	for _, st := range rest {
		if es, ok := st.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok && matchesRelease(pass, call, recv, want) {
				return // straight-line release: region ends
			}
		}
		reportBlockingOps(pass, st, recv)
	}
}

// reportBlockingOps inspects one statement of a held region, skipping
// deferred and spawned bodies.
func reportBlockingOps(pass *Pass, st ast.Stmt, recv string) {
	ast.Inspect(st, func(n ast.Node) bool {
		switch m := n.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			if !selectHasEscape(m) {
				pass.Reportf(m.Pos(),
					"select with only send cases and no default while holding %s; a slow consumer deadlocks every %s.Lock() caller — add a cancellation case or move the send after the unlock",
					recv, recv)
			}
			// Clause bodies may lock/send on their own; keep walking them,
			// but the comm statements themselves were judged above.
			for _, c := range m.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					for _, s := range cc.Body {
						reportBlockingOps(pass, s, recv)
					}
				}
			}
			return false
		case *ast.SendStmt:
			pass.Reportf(m.Pos(),
				"blocking channel send on %s while holding %s; under backpressure this strands every %s.Lock() caller — use a select with an escape case or send after the unlock",
				types.ExprString(m.Chan), recv, recv)
		case *ast.CallExpr:
			if isWaitGroupCall(pass, m, "Wait") || isCondWait(pass, m) {
				pass.Reportf(m.Pos(),
					"%s while holding %s blocks the lock until other goroutines finish; they may need the same lock",
					types.ExprString(m.Fun), recv)
			}
		}
		return true
	})
}

// selectHasEscape reports whether a select can proceed without a send
// completing: a default clause or any receive case.
func selectHasEscape(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			return true // default clause
		}
		switch comm := cc.Comm.(type) {
		case *ast.ExprStmt:
			if isReceiveExpr(comm.X) {
				return true
			}
		case *ast.AssignStmt:
			if len(comm.Rhs) == 1 && isReceiveExpr(comm.Rhs[0]) {
				return true
			}
		}
	}
	return false
}

// isCondWait reports whether the call is sync.Cond.Wait — legitimate
// only in the Cond's own lock idiom, which this repository does not use;
// a deliberate use carries a pragma.
func isCondWait(pass *Pass, call *ast.CallExpr) bool {
	sel, method, ok := syncMethod(pass, call)
	if !ok || method != "Wait" {
		return false
	}
	if selInfo, ok := pass.Info.Selections[sel]; ok {
		return namedTypeKey(selInfo.Recv()) == "sync.Cond"
	}
	return false
}
