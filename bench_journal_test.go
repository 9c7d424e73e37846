package repro_test

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/lppm"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/trace"
)

// runJournalPass streams every producer slice through a fresh gateway —
// journaling to dir when non-empty, journal-less otherwise — and digests
// the protected output exactly like runObsPass: per-user FNV-1a in
// arrival order, folded in sorted-user order, so the digest is
// independent of shard interleaving. Identical protected output ⇒
// identical digest; the benchmark asserts journaling never perturbs it.
// It also returns the journal writer's final stats (zero journal-less).
func runJournalPass(b *testing.B, shards int, slices [][]trace.Record, total int, seed int64, dir string) (uint64, journal.Stats) {
	b.Helper()
	cfg := service.Config{
		Mechanism:  lppm.NewGeoIndistinguishability(),
		Shards:     shards,
		QueueSize:  512,
		FlushEvery: 8,
		Seed:       seed,
		Obs:        obs.Nop(), // price the journal alone, not the metrics
	}
	var g *service.Gateway
	var err error
	if dir == "" {
		g, err = service.New(context.Background(), cfg)
	} else {
		// The default fsync policy: what lppm-serve runs unless told
		// otherwise, and what the repository benchmark's journal workload
		// runs.
		g, _, err = service.Recover(context.Background(), cfg, service.JournalConfig{Dir: dir})
	}
	if err != nil {
		b.Fatal(err)
	}
	type drainResult struct {
		n      int
		digest uint64
	}
	consumed := make(chan drainResult)
	go func() {
		per := make(map[string]uint64, 256)
		n := 0
		for wnd := range g.Output() {
			batch := wnd.Records
			for i := range batch {
				rec := &batch[i]
				h, ok := per[rec.User]
				if !ok {
					h = fnvMixString(fnvOffset, rec.User)
				}
				h = fnvMix64(h, uint64(rec.Time.UnixNano()))
				h = fnvMix64(h, math.Float64bits(rec.Point.Lat))
				h = fnvMix64(h, math.Float64bits(rec.Point.Lng))
				per[rec.User] = h
			}
			n += len(batch)
		}
		users := make([]string, 0, len(per))
		for u := range per {
			users = append(users, u)
		}
		sort.Strings(users)
		digest := fnvOffset
		for _, u := range users {
			digest = fnvMixString(digest, u)
			digest = fnvMix64(digest, per[u])
		}
		consumed <- drainResult{n: n, digest: digest}
	}()
	errs := make(chan error, len(slices))
	for _, recs := range slices {
		go func(recs []trace.Record) {
			errs <- g.IngestAll(recs)
		}(recs)
	}
	for range slices {
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
	}
	if err := g.Close(); err != nil {
		b.Fatal(err)
	}
	res := <-consumed
	if res.n != total {
		b.Fatalf("protected %d of %d records", res.n, total)
	}
	var js journal.Stats
	if jw := g.Journal(); jw != nil {
		js = jw.Stats()
	}
	return res.digest, js
}

// BenchmarkJournalOverhead prices crash safety on the serving hot path at
// the default fsync policy: the same workload with the write-behind
// journal on (a checkpoint enqueued at every window boundary, group-
// committed by the pump goroutine) and off, interleaved within each
// iteration with alternating order — the same discipline as
// BenchmarkObsOverhead, because journal-on and journal-off numbers from
// separate runs confound with machine state.
//
// The protected output must be bit-identical between the modes (the
// journal observes windows, it never feeds back into protection); that is
// asserted every iteration. The cost is reported, not gated: it is set by
// the host's fsync latency and by how many appends each group commit
// shares an fsync between, reported as syncs/append (1 would mean no
// grouping at all).
//
// With BENCH_JOURNAL_JSON=<path> (make bench-journal sets it) the metrics
// are written as JSON for the CI artifact trail.
func BenchmarkJournalOverhead(b *testing.B) {
	const (
		users     = 192
		perUser   = 250
		producers = 4
		shards    = 4
	)
	slices := gatewayWorkload(users, perUser, producers)
	total := users * perUser
	freshDir := func() string {
		dir, err := os.MkdirTemp("", "lppm-bench-journal-*")
		if err != nil {
			b.Fatal(err)
		}
		return dir
	}
	runMode := func(mode int, seed int64) (uint64, journal.Stats) {
		if mode == 0 {
			return runJournalPass(b, shards, slices, total, seed, "")
		}
		dir := freshDir()
		defer os.RemoveAll(dir)
		return runJournalPass(b, shards, slices, total, seed, dir)
	}
	var elapsed [2]time.Duration
	var digests [2]uint64
	var appends, syncs uint64
	for mode := 0; mode < 2; mode++ {
		runMode(mode, 0) // warm up both paths before timing
	}
	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		// Alternate which mode goes first: a fixed order would let slow
		// host-load oscillations masquerade as a mode difference.
		for k := 0; k < 2; k++ {
			mode := (iter + k) % 2
			start := time.Now()
			var js journal.Stats
			digests[mode], js = runMode(mode, int64(iter+1))
			elapsed[mode] += time.Since(start)
			appends += js.Appends
			syncs += js.Syncs
		}
		if digests[0] != digests[1] {
			b.Fatalf("journaling perturbed the output: digest off=%016x on=%016x",
				digests[0], digests[1])
		}
	}
	off := float64(total*b.N) / elapsed[0].Seconds()
	on := float64(total*b.N) / elapsed[1].Seconds()
	overheadPct := (elapsed[1] - elapsed[0]).Seconds() / elapsed[0].Seconds() * 100
	syncsPerAppend := float64(syncs) / float64(max(appends, 1))
	b.ReportMetric(off, "points/sec:off")
	b.ReportMetric(on, "points/sec:on")
	b.ReportMetric(overheadPct, "overhead:%")
	b.ReportMetric(syncsPerAppend, "syncs/append")

	if path := os.Getenv("BENCH_JOURNAL_JSON"); path != "" {
		payload := struct {
			Benchmark string             `json:"benchmark"`
			Users     int                `json:"users"`
			Records   int                `json:"records"`
			Iters     int                `json:"iterations"`
			Procs     int                `json:"gomaxprocs"`
			Metrics   map[string]float64 `json:"metrics"`
		}{"BenchmarkJournalOverhead", users, total, b.N, runtime.GOMAXPROCS(0), map[string]float64{
			"points/sec:off":   off,
			"points/sec:on":    on,
			"overhead_pct":     overheadPct,
			"syncs_per_append": syncsPerAppend,
		}}
		data, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}
