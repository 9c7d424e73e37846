package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestWorkloadsSmoke runs every workload for a second or two per pass
// against a freshly built lppm-serve, then a traced stream-saturate run,
// and checks each reports every metric it owes with correct outputs.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds lppm-serve and drives it for about half a minute")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "lppm-serve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/lppm-serve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build lppm-serve: %v\n%s", err, out)
	}
	check := func(rep *report, defs []metricDef) {
		t.Helper()
		if !rep.res.Correct || rep.res.Failed != 0 || rep.res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d\n%v", rep.workload, rep.res.Correct, rep.res.Attempted, rep.res.Failed, rep.notes)
		}
		if len(rep.res.Metrics) != len(defs) {
			t.Errorf("%s: %d metrics, want %d", rep.workload, len(rep.res.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := rep.res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s: metric %s missing or not in %s", rep.workload, d.name, d.unit)
			}
		}
	}
	ctx := context.Background()
	for _, w := range workloads {
		seconds := 1
		if w.name == "stream-sparse" {
			// At 20k records/s over 4096 users, the fastest reporters
			// complete their first window after about three seconds.
			seconds = 4
		}
		rep, err := w.run(ctx, &env{seed: 1, seconds: seconds, server: bin, tmp: dir})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		check(rep, e2eDefs)
		for _, name := range []string{"throughput_pts_s", "latency_p50_ms", "setup_s", "peak_rss_mb"} {
			if rep.res.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, rep.res.Metrics[name].Value)
			}
		}
	}
	traceOut := filepath.Join(dir, "trace.json")
	rep, err := runStream(ctx, &env{seed: 2, seconds: 1, traced: true, server: bin, tmp: dir, traceOut: traceOut}, saturateSpec)
	if err != nil {
		t.Fatal(err)
	}
	check(rep, layerDefs)
}
