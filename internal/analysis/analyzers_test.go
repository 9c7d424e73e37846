package analysis

import "testing"

// Each analyzer's golden directory is run through the same
// runPackage/pragma pipeline lppm-lint uses. detrand is path-scoped, so
// its directory is loaded twice: once as a deterministic package (the
// findings fire) and once as the serving layer (silence).

func TestDetRandGolden(t *testing.T) {
	runGolden(t, DetRand, "testdata/detrand", "repro/internal/synth")
}

func TestDetRandExemptsServingLayer(t *testing.T) {
	runGoldenExpectNone(t, DetRand, "testdata/detrand", "repro/internal/server")
}

func TestDroppedErrGolden(t *testing.T) {
	runGolden(t, DroppedErr, "testdata/droppederr", "repro/internal/droppedtest")
}

func TestFloatCmpGolden(t *testing.T) {
	runGolden(t, FloatCmp, "testdata/floatcmp", "repro/internal/floatcmptest")
}

func TestLockDeferGolden(t *testing.T) {
	runGolden(t, LockDefer, "testdata/lockdefer", "repro/internal/lockdefertest")
}

func TestMapOrderGolden(t *testing.T) {
	runGolden(t, MapOrder, "testdata/maporder", "repro/internal/maptest")
}

// Concurrency pass (PR 7). ctxflow's package-main exemption is pinned
// by loading a main package from the mainpkg subdirectory and
// expecting silence.

func TestGoroLeakGolden(t *testing.T) {
	runGolden(t, GoroLeak, "testdata/goroleak", "repro/internal/goroleaktest")
}

func TestCtxFlowGolden(t *testing.T) {
	runGolden(t, CtxFlow, "testdata/ctxflow", "repro/internal/ctxflowtest")
}

func TestCtxFlowExemptsMain(t *testing.T) {
	runGoldenExpectNone(t, CtxFlow, "testdata/ctxflow/mainpkg", "repro/cmd/ctxflowmain")
}

func TestSendLockGolden(t *testing.T) {
	runGolden(t, SendLock, "testdata/sendlock", "repro/internal/sendlocktest")
}

func TestWgDisciplineGolden(t *testing.T) {
	runGolden(t, WgDiscipline, "testdata/wgdiscipline", "repro/internal/wgtest")
}
