package analysis

import (
	"go/ast"
	"go/types"
)

// TimeLeak guards the timer lifecycle on hot paths. time.After and
// time.Tick allocate a timer the caller can never stop: harmless once,
// but inside a loop every iteration leaks one until it fires — and
// time.Tick's never fires free. The serving stack runs retry and
// write-stall loops at request rate, where the sanctioned idiom is a
// single time.NewTimer/NewTicker outside the loop with a deferred Stop
// (see the drain-grace timer in Gateway.flush).
var TimeLeak = &Analyzer{
	Name: "timeleak",
	Doc: "no time.After or time.Tick inside a loop; hoist a " +
		"NewTimer/NewTicker with a deferred Stop instead",
	Run: runTimeLeak,
}

func runTimeLeak(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				body = loop.Body
			default:
				return true
			}
			ast.Inspect(body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name, ok := timerFactory(pass, call); ok {
					pass.Reportf(call.Pos(),
						"time.%s inside a loop leaks one timer per iteration; hoist a time.New%s before the loop and defer its Stop",
						name, newName(name))
				}
				return true
			})
			// The inner walk covered this subtree, nested loops included
			// (a call inside two loops still leaks per iteration and is
			// reported once).
			return false
		})
	}
}

// timerFactory matches time.After / time.Tick calls.
func timerFactory(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := pass.Info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "time" {
		return "", false
	}
	if sel.Sel.Name == "After" || sel.Sel.Name == "Tick" {
		return sel.Sel.Name, true
	}
	return "", false
}

// newName maps the leaking helper to its stoppable counterpart.
func newName(factory string) string {
	if factory == "Tick" {
		return "Ticker"
	}
	return "Timer"
}
