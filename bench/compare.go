package main

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// verdict classifies one (workload, metric) pairing of a paired comparison.
type verdict struct {
	parentMed, changeMed float64
	parentQ1, parentQ3   float64
	changeQ1, changeQ3   float64
	wins, pairs          int
	label                string
}

// judge applies the paired-run rules to one metric: a gain needs the change
// to win at least nine tenths of the pairs (ties count for neither) and the
// medians to differ by more than the parent's interquartile distance; a
// regression is a change median worse than the parent's by more than the
// metric's bound; a metric whose own spread exceeds its bound is
// unresolved, unless every change run beats every parent run.
func judge(parent, change []float64, bound float64, higherBetter bool) (verdict, error) {
	v := verdict{pairs: min(len(parent), len(change))}
	if len(parent) < 2 || len(change) < 2 {
		return v, fmt.Errorf("need at least two runs per side, got %d and %d", len(parent), len(change))
	}
	var err error
	if v.parentQ1, v.parentMed, v.parentQ3, err = quartiles(parent); err != nil {
		return v, err
	}
	if v.changeQ1, v.changeMed, v.changeQ3, err = quartiles(change); err != nil {
		return v, err
	}
	better := func(a, b float64) bool { // a better than b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	for i := 0; i < v.pairs; i++ {
		if better(change[i], parent[i]) {
			v.wins++
		}
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	worse := (v.changeMed - v.parentMed) / math.Abs(v.parentMed)
	if higherBetter {
		worse = -worse
	}
	ps, perr := spread(parent)
	cs, cerr := spread(change)
	if perr != nil || cerr != nil {
		return v, fmt.Errorf("spread: %w", errors.Join(perr, cerr))
	}
	switch {
	case 10*v.wins >= 9*v.pairs && v.pairs >= 10 && better(v.changeMed, v.parentMed) &&
		math.Abs(v.changeMed-v.parentMed) > v.parentQ3-v.parentQ1:
		v.label = "gain"
	case (ps > bound || cs > bound) && !allBetter:
		v.label = "unresolved (spread exceeds bound)"
	case worse > bound:
		v.label = "REGRESSION"
	default:
		v.label = "no regression"
	}
	return v, nil
}

// runCompare reads the parent's and the change's result files (rows from
// -out, untraced, ideally at least ten alternating pairs per workload) and
// renders, per workload and end-to-end metric, each side's median and
// quartiles, the change's win fraction and the verdict.
func runCompare(bf *benchmarkFile, parentPath, changePath string) (string, error) {
	parent, err := readRows(parentPath)
	if err != nil {
		return "", err
	}
	change, err := readRows(changePath)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, w := range workloads {
		p, c := untraced(parent, w.name), untraced(change, w.name)
		if len(p) == 0 && len(c) == 0 {
			continue
		}
		fmt.Fprintf(&b, "== %s: %d parent runs, %d change runs, failed %d vs %d\n",
			w.name, len(p), len(c), failedOps(p), failedOps(c))
		if min(len(p), len(c)) < 10 {
			fmt.Fprintf(&b, "  fewer than 10 pairs: no gain can be claimed\n")
		}
		if failedOps(c) > failedOps(p) {
			fmt.Fprintf(&b, "  more operations failed than at the parent: no gain counts\n")
		}
		for _, m := range bf.EndToEnd {
			pv, cv := values(p, m.Name), values(c, m.Name)
			v, err := judge(pv, cv, m.Bound, m.Better == "higher")
			if err != nil {
				fmt.Fprintf(&b, "  %-18s %v\n", m.Name, err)
				continue
			}
			fmt.Fprintf(&b, "  %-18s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  wins %d/%d  bound %.0f%%  %s\n",
				m.Name, v.parentMed, v.parentQ1, v.parentQ3, v.changeMed, v.changeQ1, v.changeQ3,
				v.wins, v.pairs, 100*m.Bound, v.label)
		}
	}
	return b.String(), nil
}

func untraced(rows []row, workload string) []row {
	var out []row
	for _, r := range rows {
		if r.Workload == workload && r.Trace == 0 {
			out = append(out, r)
		}
	}
	return out
}

func values(rows []row, name string) []float64 {
	var out []float64
	for _, r := range rows {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failedOps(rows []row) int {
	n := 0
	for _, r := range rows {
		n += r.Failed
	}
	return n
}
