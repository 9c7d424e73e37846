package repro_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/lppm"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/trace"
)

// gatewayShardCounts are the shard configurations the throughput benchmark
// compares.
var gatewayShardCounts = []int{1, 4, 8}

// gatewayWorkload builds interleaved per-user streams, each producer slice
// covering a disjoint user set so concurrent ingestion preserves per-user
// time order.
func gatewayWorkload(users, perUser, producers int) [][]trace.Record {
	t0 := time.Date(2008, 5, 17, 0, 0, 0, 0, time.UTC)
	base := geo.Point{Lat: 37.7749, Lng: -122.4194}
	slices := make([][]trace.Record, producers)
	for p := range slices {
		var recs []trace.Record
		for i := 0; i < perUser; i++ {
			for u := p; u < users; u += producers {
				recs = append(recs, trace.Record{
					User:  fmt.Sprintf("driver-%03d", u),
					Time:  t0.Add(time.Duration(i) * 30 * time.Second),
					Point: base.Offset(float64(i)*40, float64(u)*25),
				})
			}
		}
		slices[p] = recs
	}
	return slices
}

// runGatewayPass streams every producer slice through a fresh gateway and
// verifies all records come back protected. With sampled set, a
// reconfiguration controller taps the flushed windows at its default 5%
// sampling rate (the loop's steady-state hot-path cost; evaluations are
// off-path and not measured here).
func runGatewayPass(b *testing.B, shards int, slices [][]trace.Record, total int, seed int64, sampled bool) {
	b.Helper()
	mech := lppm.NewGeoIndistinguishability()
	cfg := service.Config{
		Mechanism:  mech,
		Shards:     shards,
		QueueSize:  512,
		FlushEvery: 8,
		Seed:       seed,
	}
	g, err := service.New(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	if sampled {
		dep, err := core.NewDeployment(mech, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := service.NewController(g, dep, service.ControllerConfig{
			Definition: core.Definition{
				Mechanism: mech,
				Privacy:   metrics.MustPOIRetrieval(metrics.DefaultPOIRetrievalConfig()),
				Utility:   metrics.MustAreaCoverage(metrics.DefaultAreaCoverageConfig()),
			},
			Objectives: model.Objectives{MaxPrivacy: 0.95, MinUtility: 0.05},
			Seed:       seed,
		}); err != nil {
			b.Fatal(err)
		}
	}
	consumed := make(chan int)
	go func() {
		n := 0
		for wnd := range g.Output() {
			n += len(wnd.Records)
		}
		consumed <- n
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
	if n := <-consumed; n != total {
		b.Fatalf("protected %d of %d records", n, total)
	}
}

// BenchmarkGatewayThroughput measures end-to-end gateway throughput —
// ingest, shard routing, windowed GEO-I protection, emission — and reports
// points/sec for 1, 4 and 8 shards. The shard configurations are
// interleaved within every iteration so all three see the same machine
// conditions; sequential per-config runs would let load drift on shared
// hardware swamp the shard effect. Exact planar-Laplace sampling is a
// large share of the per-record cost, so on multi-core hardware
// throughput rises with shards until routing saturates; on a single core
// the margin comes from smaller per-shard user tables and per-shard queue
// and output-buffer slack.
func BenchmarkGatewayThroughput(b *testing.B) {
	const (
		users     = 192
		perUser   = 250
		producers = 4
	)
	slices := gatewayWorkload(users, perUser, producers)
	total := users * perUser
	elapsed := make([]time.Duration, len(gatewayShardCounts))
	// One untimed pass per configuration warms the heap and page tables.
	for _, shards := range gatewayShardCounts {
		runGatewayPass(b, shards, slices, total, 0, false)
	}
	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		for ci, shards := range gatewayShardCounts {
			start := time.Now()
			runGatewayPass(b, shards, slices, total, int64(iter+1), false)
			elapsed[ci] += time.Since(start)
		}
	}
	for ci, shards := range gatewayShardCounts {
		b.ReportMetric(float64(total*b.N)/elapsed[ci].Seconds(),
			fmt.Sprintf("points/sec:%dshard", shards))
	}
}

// BenchmarkGatewayControllerOverhead measures what attaching the
// reconfiguration controller costs the serving hot path: the same workload
// with the tap off and with 5% window sampling on, interleaved within every
// iteration (same single-CPU discipline as above) so shared-host load drift
// cannot masquerade as controller overhead. The budget is < 5% regression;
// the steady-state cost is one atomic load per flush plus a Bernoulli draw
// and, on the sampled 5%, copying one window into the sliding aggregates.
func BenchmarkGatewayControllerOverhead(b *testing.B) {
	const (
		users     = 192
		perUser   = 250
		producers = 4
		shards    = 4
	)
	slices := gatewayWorkload(users, perUser, producers)
	total := users * perUser
	modes := []bool{false, true}
	elapsed := make([]time.Duration, len(modes))
	for _, sampled := range modes {
		runGatewayPass(b, shards, slices, total, 0, sampled)
	}
	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		// Alternate which mode goes first: with only two configs, a fixed
		// order would let slow host-load oscillations masquerade as a
		// systematic mode difference.
		for k := range modes {
			mi := (iter + k) % len(modes)
			start := time.Now()
			runGatewayPass(b, shards, slices, total, int64(iter+1), modes[mi])
			elapsed[mi] += time.Since(start)
		}
	}
	off := float64(total*b.N) / elapsed[0].Seconds()
	on := float64(total*b.N) / elapsed[1].Seconds()
	b.ReportMetric(off, "points/sec:off")
	b.ReportMetric(on, "points/sec:sampled")
	b.ReportMetric((off-on)/off*100, "overhead:%")
}
