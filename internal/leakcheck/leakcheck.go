// Package leakcheck is the runtime half of the concurrency-invariant
// suite (DESIGN.md §11). The static analyzers in internal/analysis
// (goroleak, wgdiscipline, …) prove spawn-site discipline — every go
// statement has a visible termination path. That proof is structural,
// not temporal: a goroutine can have a perfectly sound exit path that
// a buggy caller simply never triggers (a Close never called, a context
// never canceled, a channel never drained). leakcheck closes that gap
// at test time: after a package's tests finish, it snapshots all
// goroutine stacks and fails the binary if any goroutine is still
// running module code.
//
// Wire it through TestMain, one per test binary:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// Detection parses runtime.Stack(all) rather than counting goroutines:
// counting flags unrelated runtime and net/http infrastructure
// (persistConn keep-alives, timer scavengers) that this module neither
// started nor can stop, while stack filtering pins blame to frames
// inside this module. A goroutine blocked in a stdlib primitive still
// shows its module caller frames, so sends, selects, and Waits in
// module code are all caught.
//
// The converse is the blind spot: a stdlib goroutine that module code
// strands has no module frame, so it is not counted. An HTTP transport's
// request-body writer (net/http.(*persistConn).writeLoop) parked reading
// an io.Pipe that module code never closes is one; tests for that shape
// scan the stacks for the stdlib frames themselves, as
// TestServerEndedStreamReleasesBodyWriter in internal/server does.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// modulePrefix marks a stack frame as ours: function symbols qualify as
// repro/internal/service.(*Gateway).run, repro/internal/server.…, etc.
const modulePrefix = "repro/"

// selfPrefix excludes leakcheck's own frames (the goroutine running the
// check) and nothing else; the trailing dot keeps sibling packages and
// the leakcheck_test self-test visible.
const selfPrefix = "repro/internal/leakcheck."

// grace is how long Main waits for in-flight goroutines to drain before
// declaring a leak. Tests legitimately return a beat before their
// workers finish (a deferred Close, an http test server tearing down);
// only goroutines that outlive the grace window are stuck, not slow.
const grace = 5 * time.Second

// runner is the subset of *testing.M leakcheck needs; taking the
// interface keeps the testing package out of this (non-test) package's
// import graph.
type runner interface{ Run() int }

// Main runs the package's tests, then fails the binary (exit 1) if any
// goroutine is still executing module code once the grace window
// closes. Leaked stacks are printed in full so the offending spawn site
// is one read away. A failing test run keeps its own exit code; leak
// output is still printed so one debugging session sees both.
func Main(m runner) {
	code := m.Run()
	if leaks := Check(grace); len(leaks) > 0 {
		fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) still in module code after tests:\n\n%s\n",
			len(leaks), strings.Join(leaks, "\n\n"))
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// Check polls until no goroutine runs module code or the grace window
// expires, then returns the stacks of the stragglers (empty means
// clean). Exported for tests that want a leak gate mid-package rather
// than at binary exit.
func Check(grace time.Duration) []string {
	deadline := time.Now().Add(grace)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		leaks := moduleGoroutines()
		if len(leaks) == 0 || time.Now().After(deadline) {
			return leaks
		}
		<-tick.C
	}
}

// moduleGoroutines snapshots every goroutine and keeps the stacks with
// at least one module frame, excluding leakcheck itself.
func moduleGoroutines() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	var leaked []string
	for _, block := range strings.Split(string(buf[:n]), "\n\n") {
		if !strings.Contains(block, modulePrefix) || strings.Contains(block, selfPrefix) {
			continue
		}
		leaked = append(leaked, strings.TrimSpace(block))
	}
	return leaked
}
