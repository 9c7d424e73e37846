// Command lppm-bench is the repository benchmark. It measures the two
// halves of the framework a user waits on — configuring an LPPM (Analyze →
// Configure) and protecting live location streams with the chosen
// parameter — on four workloads, checks every output against an
// independent reference, and prints every metric by name with its unit.
//
// The stream workloads run lppm-serve as a separate process and drive it
// through the public client over two connections; the configure workload
// calls core.Analyze in-process. The workload seed shapes only the inputs
// (internal/synth); the server always runs with seed 42, which the output
// oracle assumes. A traced run (-trace 1) repeats the workload with spans
// around every call into a layer, adds in-process runs of each layer alone
// on the workload's inputs, and reports the per-layer metrics instead of
// the end-to-end ones. BENCHMARK.md documents the workloads and metrics.
//
// Usage, from the repository root (run.sh builds both binaries first):
//
//	bash bench/run.sh -workload stream-saturate -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -workload all -seed 1 -out runs.jsonl
//	bash bench/run.sh -compare parent.jsonl change.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A run whose outputs disagree with
// the reference exits 1 after printing it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// env is one invocation's settings, shared by every workload it runs.
type env struct {
	seed     int64
	seconds  int
	traced   bool
	server   string // lppm-serve binary
	tmp      string // scratch directory for journals
	traceOut string // Chrome trace path of a traced run
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one workload's outcome: the result plus human-readable notes
// (sample counts, oracle verdicts, layer breakdowns).
type report struct {
	workload string
	res      result
	notes    []string
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// set records metric name with the unit its definition table gives it. A
// value with nothing behind it (a quantile of no samples) reads 0.
func (r *report) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.res.Metrics[name] = metric{Value: finite(v), Unit: d.unit}
			return
		}
	}
	panic("unknown metric " + name)
}

// workload is one named traffic mix.
type workload struct {
	name string
	run  func(ctx context.Context, e *env) (*report, error)
}

// workloads lists the benchmark's workloads; BENCHMARK.md says why each
// was chosen.
var workloads = []workload{
	{"stream-saturate", func(ctx context.Context, e *env) (*report, error) { return runStream(ctx, e, saturateSpec) }},
	{"stream-sparse", func(ctx context.Context, e *env) (*report, error) { return runStream(ctx, e, sparseSpec) }},
	{"stream-journal", func(ctx context.Context, e *env) (*report, error) { return runStream(ctx, e, journalSpec) }},
	{"configure", runConfigure},
}

// options are the command-line flags.
type options struct {
	workload, server, out, traceOut, commit string
	seed                                    int64
	seconds, trace                          int
	compare                                 bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: shapes the generated inputs only")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds per workload pass")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics; 0 reports end-to-end metrics")
	flag.StringVar(&o.server, "server", "", "lppm-serve binary to drive (run.sh builds it)")
	flag.StringVar(&o.out, "out", "", "append each workload's result row to this JSONL file")
	flag.StringVar(&o.traceOut, "trace-out", "", "Chrome trace of a traced run (default under the temp directory)")
	flag.StringVar(&o.commit, "commit", "", "commit the measured tree was built from, recorded in -out rows")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files, parent first: -compare parent.jsonl change.jsonl")
	flag.Parse()
	code, err := run(o, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "lppm-bench:", err)
	}
	os.Exit(code)
}

// run executes one invocation and returns its exit status: 0 when every
// output matched its reference, 1 when one did not or a run failed, 2 for
// a usage error.
func run(o options, args []string) (int, error) {
	bf, err := loadBenchmarkFile(".")
	if err != nil {
		return 2, err
	}
	if err := bf.check(); err != nil {
		return 2, err
	}
	if o.compare {
		if len(args) != 2 {
			return 2, errors.New("-compare wants two result files: parent then change")
		}
		text, err := runCompare(bf, args[0], args[1])
		fmt.Print(text)
		if err != nil {
			return 1, err
		}
		return 0, nil
	}
	if o.seconds < 1 || o.seconds > 60 {
		return 2, fmt.Errorf("-seconds must be in [1, 60], got %d", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return 2, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.server == "" {
		return 2, errors.New("-server is required (bash bench/run.sh builds lppm-serve and passes it)")
	}
	var selected []workload
	for _, w := range workloads {
		if o.workload == "all" || w.name == o.workload {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return 2, fmt.Errorf("unknown -workload %q", o.workload)
	}
	tmp, err := os.MkdirTemp("", "lppm-bench-")
	if err != nil {
		return 2, err
	}
	defer os.RemoveAll(tmp)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	history, err := loadHistory(filepath.Join("bench", "history.jsonl"))
	if err != nil {
		return 2, err
	}
	var reports []*report
	for _, w := range selected {
		e := &env{seed: o.seed, seconds: o.seconds, traced: o.trace == 1, server: o.server, tmp: tmp, traceOut: o.traceOut}
		if e.traced && e.traceOut == "" {
			e.traceOut = filepath.Join(os.TempDir(), fmt.Sprintf("lppm-bench-%s-seed%d.trace.json", w.name, o.seed))
		}
		rep, err := w.run(ctx, e)
		if err != nil {
			return 1, fmt.Errorf("%s: %w", w.name, err)
		}
		fmt.Print(formatReport(rep, e, history))
		if o.out != "" {
			if err := appendRow(o.out, newRow(rep, e, o.commit)); err != nil {
				return 1, err
			}
		}
		reports = append(reports, rep)
	}
	final := reports[0].res
	if len(reports) > 1 {
		final = combine(reports)
	}
	line, err := json.Marshal(final)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !final.Correct {
		return 1, errors.New("outputs disagree with the reference (see failed)")
	}
	return 0, nil
}

// combine merges several workloads' results into one object, metric names
// prefixed with their workload.
func combine(reports []*report) result {
	out := result{Correct: true, Metrics: make(map[string]metric)}
	for _, r := range reports {
		out.Correct = out.Correct && r.res.Correct
		out.Attempted += r.res.Attempted
		out.Failed += r.res.Failed
		for k, v := range r.res.Metrics {
			out.Metrics[r.workload+"/"+k] = v
		}
	}
	return out
}
