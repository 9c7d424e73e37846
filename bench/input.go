package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/synth"
	"repro/internal/trace"
)

// fleet is a workload's input: a synthetic fleet (internal/synth, seeded
// by the workload seed) after one trip through the wire codec, so the
// records are exactly what the server decodes — timestamps at whole
// seconds, coordinates as the JSONL encoder prints them.
//
// A closed-loop workload needs more records than it is worth generating,
// so each user's base trace repeats: record i is base record i mod len,
// shifted by whole cycles of the trace's span. Timestamps stay strictly
// increasing per user and every record stays wire-exact.
type fleet struct {
	users []string
	idx   map[string]int
	base  [][]trace.Record
	cycle []time.Duration
}

// genFleet generates drivers × dur of synthetic traffic from seed.
func genFleet(seed int64, drivers int, dur time.Duration) (*fleet, error) {
	cfg := synth.DefaultConfig()
	cfg.Seed = seed
	cfg.NumDrivers = drivers
	cfg.Duration = dur
	f, err := synth.Generate(cfg, nil)
	if err != nil {
		return nil, err
	}
	return fleetFrom(f.Dataset)
}

// fleetFrom round-trips a dataset through the JSONL wire codec and indexes
// it by user.
func fleetFrom(ds *trace.Dataset) (*fleet, error) {
	raw, err := encodeDataset(ds)
	if err != nil {
		return nil, err
	}
	wire, err := trace.ReadJSONL(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	return newFleet(wire), nil
}

// encodeDataset renders a dataset in the JSONL wire format.
func encodeDataset(ds *trace.Dataset) ([]byte, error) {
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, ds); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// newFleet indexes a dataset by user, in sorted user order. Each user's
// records repeat after their span plus a minute.
func newFleet(ds *trace.Dataset) *fleet {
	f := &fleet{idx: make(map[string]int)}
	for _, t := range ds.Traces() {
		if t.Len() == 0 {
			continue
		}
		f.idx[t.User] = len(f.users)
		f.users = append(f.users, t.User)
		f.base = append(f.base, t.Records)
		f.cycle = append(f.cycle, t.Duration()+time.Minute)
	}
	return f
}

// record returns user u's i-th input record.
func (f *fleet) record(u, i int) trace.Record {
	b := f.base[u]
	rec := b[i%len(b)]
	if c := i / len(b); c > 0 {
		rec.Time = rec.Time.Add(time.Duration(c) * f.cycle[u])
	}
	return rec
}

// records returns user u's first n input records.
func (f *fleet) records(u, n int) []trace.Record {
	out := make([]trace.Record, n)
	for i := range out {
		out[i] = f.record(u, i)
	}
	return out
}

// dataset returns the first k users' base traces as a dataset.
func (f *fleet) dataset(k int) (*trace.Dataset, error) {
	var traces []*trace.Trace
	for u := 0; u < k && u < len(f.users); u++ {
		t, err := trace.NewTrace(f.users[u], f.base[u])
		if err != nil {
			return nil, err
		}
		traces = append(traces, t)
	}
	return trace.FromTraces(traces)
}

// connUsers spreads users over conns connections round-robin.
func connUsers(users, conns int) [][]int {
	out := make([][]int, conns)
	for u := 0; u < users; u++ {
		out[u%conns] = append(out[u%conns], u)
	}
	return out
}

// slot is one scheduled send of an open-loop workload: user u's i-th
// record, the j-th record of the global schedule.
type slot struct {
	u, i, j int
}

// timeOrder merges every user's base records into one global timestamp
// order (ties broken by user, then position) and keeps the first n — the
// open-loop schedule. Fails when the fleet has fewer than n records.
func (f *fleet) timeOrder(n int) ([]slot, error) {
	var all []slot
	for u, b := range f.base {
		for i := range b {
			all = append(all, slot{u: u, i: i})
		}
	}
	if len(all) < n {
		return nil, fmt.Errorf("fleet has %d records, schedule needs %d", len(all), n)
	}
	sort.Slice(all, func(a, b int) bool {
		ta, tb := f.base[all[a].u][all[a].i].Time, f.base[all[b].u][all[b].i].Time
		if !ta.Equal(tb) {
			return ta.Before(tb)
		}
		if all[a].u != all[b].u {
			return all[a].u < all[b].u
		}
		return all[a].i < all[b].i
	})
	all = all[:n]
	for j := range all {
		all[j].j = j
	}
	return all, nil
}

// sample is the workload's input as the layer-alone runs see it: the first
// n records each connection sends, in its send order — the open-loop
// schedule's prefix when sched is set, round-robin over the connection's
// users otherwise.
func (f *fleet) sample(sched []slot, n int) [][]trace.Record {
	out := make([][]trace.Record, conns)
	if sched != nil {
		for _, s := range sched[:min(len(sched), n)] {
			out[s.u%conns] = append(out[s.u%conns], f.record(s.u, s.i))
		}
		return out
	}
	for c, us := range connUsers(len(f.users), conns) {
		for _, s := range closedOrder(us, n/conns) {
			out[c] = append(out[c], f.record(s.u, s.i))
		}
	}
	return out
}

// closedOrder is the send order of a closed-loop connection: round-robin
// over its users, each advancing through its own records.
func closedOrder(users []int, n int) []slot {
	out := make([]slot, 0, n)
	next := make([]int, len(users))
	for k := 0; len(out) < n; k++ {
		p := k % len(users)
		out = append(out, slot{u: users[p], i: next[p], j: len(out)})
		next[p]++
	}
	return out
}
