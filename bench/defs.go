package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// e2eDefs are the end-to-end metrics every untraced run reports, on every
// workload (BENCHMARK.json "end_to_end" lists the same names, units and
// regression bounds).
var e2eDefs = []metricDef{
	{"throughput_pts_s", "pts/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// layerDefs are the per-layer metrics every traced run reports, on every
// workload (BENCHMARK.json "per_layer"). BENCHMARK.md gives each one's
// definition, source and the end-to-end metric it should move.
var layerDefs = []metricDef{
	{"trace.encode_ns_per_rec", "ns"},
	{"trace.decode_ns_per_rec", "ns"},
	{"trace.decode_allocs_per_rec", "count"},
	{"trace.wire_bytes_per_rec", "B"},
	{"lppm.stream_protect_ns_per_rec", "ns"},
	{"lppm.batch_protect_ns_per_rec", "ns"},
	{"service.gateway_ns_per_rec", "ns"},
	{"service.gateway_self_ns_per_rec", "ns"},
	{"service.records_per_window", "count"},
	{"service.queue_depth_max", "count"},
	{"service.rss_kb_per_user", "KB"},
	{"stage.ingest_mean_ms", "ms"},
	{"stage.queue_mean_ms", "ms"},
	{"stage.flush_mean_ms", "ms"},
	{"stage.dispatch_mean_ms", "ms"},
	{"stage.write_mean_ms", "ms"},
	{"journal.ns_per_rec", "ns"},
	{"journal.bytes_per_rec", "B"},
	{"journal.appends_per_window", "count"},
	{"journal.recover_s", "s"},
	{"server.loopback_ns_per_rec", "ns"},
	{"server.transport_self_ns_per_rec", "ns"},
	{"server.residual_ns_per_rec", "ns"},
	{"server.cpu_us_per_rec", "us"},
	{"server.gc_cycles", "count"},
	{"server.gc_pause_ms", "ms"},
	{"server.failed_windows", "count"},
	{"client.send_block_p99_ms", "ms"},
	{"loadgen.cpu_us_per_rec", "us"},
	{"loadgen.late_p99_ms", "ms"},
	{"eval.sweep_s", "s"},
	{"eval.items_per_s", "1/s"},
	{"metrics.prepare_ms", "ms"},
	{"metrics.poi_retrieval_ns_per_rec", "ns"},
	{"metrics.area_coverage_ns_per_rec", "ns"},
	{"core.properties_ms", "ms"},
	{"model.fit_ms", "ms"},
	{"core.residual_ms", "ms"},
	{"bench.e2e_ns_per_rec", "ns"},
	{"bench.trace_overhead_frac", "ratio"},
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// check fails when BENCHMARK.json and this harness disagree on a workload,
// a metric name or a unit — the two must describe the same benchmark.
func (b *benchmarkFile) check() error {
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var mine []string
	for _, w := range workloads {
		mine = append(mine, w.name)
	}
	if err := sameList("workloads", names, mine); err != nil {
		return err
	}
	e2e := make(map[string]string)
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	if err := sameDefs("end_to_end", e2e, e2eDefs); err != nil {
		return err
	}
	layer := make(map[string]string)
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	return sameDefs("per_layer", layer, layerDefs)
}

func sameList(what string, a, b []string) error {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		return fmt.Errorf("BENCHMARK.json %s %v, harness has %v", what, a, b)
	}
	return nil
}

func sameDefs(what string, file map[string]string, defs []metricDef) error {
	if len(file) != len(defs) {
		return fmt.Errorf("BENCHMARK.json lists %d %s metrics, harness reports %d", len(file), what, len(defs))
	}
	for _, d := range defs {
		if u, ok := file[d.name]; !ok || u != d.unit {
			return fmt.Errorf("BENCHMARK.json %s metric %s: unit %q, harness reports %q", what, d.name, u, d.unit)
		}
	}
	return nil
}
