package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"sort"
	"strings"
)

// row is one run in a result file (-out) or in the committed trajectory
// bench/history.jsonl.
type row struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Commit     string `json:"commit,omitempty"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	result
}

func newRow(r *report, e *env, commit string) row {
	tr := 0
	if e.traced {
		tr = 1
	}
	return row{
		Workload: r.workload, Seed: e.seed, Seconds: e.seconds, Trace: tr, Commit: commit,
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		result: r.res,
	}
}

func appendRow(path string, r row) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(line, '\n'))
	return errors.Join(werr, f.Close())
}

// readRows parses a JSONL result file.
func readRows(path string) ([]row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []row
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r row
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		rows = append(rows, r)
	}
	return rows, sc.Err()
}

// loadHistory reads the committed trajectory; a missing file is empty.
func loadHistory(path string) ([]row, error) {
	rows, err := readRows(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return rows, err
}

// lastRow returns the most recent history row for a workload and mode.
func lastRow(history []row, workload string, trace int) (row, bool) {
	for i := len(history) - 1; i >= 0; i-- {
		if history[i].Workload == workload && history[i].Trace == trace {
			return history[i], true
		}
	}
	return row{}, false
}

// formatReport renders a workload's metrics, each with its change against
// the last committed history row, and the workload's notes.
func formatReport(r *report, e *env, history []row) string {
	var w strings.Builder
	mode, tr := "end-to-end", 0
	if e.traced {
		mode, tr = "per-layer (traced run)", 1
	}
	fmt.Fprintf(&w, "== %s  seed=%d seconds=%d  %s\n", r.workload, e.seed, e.seconds, mode)
	last, haveLast := lastRow(history, r.workload, tr)
	names := make([]string, 0, len(r.res.Metrics))
	for k := range r.res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.res.Metrics[k]
		line := fmt.Sprintf("  %-34s %14.6g %-6s", k, m.Value, m.Unit)
		if prev, ok := last.Metrics[k]; haveLast && ok && prev.Value != 0 {
			line += fmt.Sprintf("  %+7.2f%% vs history (%s, seed %d)", 100*(m.Value-prev.Value)/prev.Value, last.Commit, last.Seed)
		}
		fmt.Fprintln(&w, line)
	}
	for _, n := range r.notes {
		fmt.Fprintln(&w, "  "+n)
	}
	fmt.Fprintf(&w, "  correct=%v attempted=%d failed=%d\n", r.res.Correct, r.res.Attempted, r.res.Failed)
	return w.String()
}
