package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server/client"
)

// TestStatsMatchesRegistry is the no-drift check of the stats rework: the
// /v1/stats body and the registry must quote the same numbers, because the
// former is now assembled from the latter's Gather.
func TestStatsMatchesRegistry(t *testing.T) {
	env := newEnv(t, baseGatewayConfig(11), nil)
	recs := makeRecords(6, 24)
	streamAll(t, env.cl, recs)

	st, err := env.cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	v := obs.NewView(env.gw.Obs().Gather())
	if got, want := st.Gateway.Ingested, uint64(v.Sum("lppm_shard_ingested_total")); got != want {
		t.Errorf("stats ingested = %d, registry says %d", got, want)
	}
	if got, want := st.Gateway.Emitted, uint64(v.Sum("lppm_shard_emitted_total")); got != want {
		t.Errorf("stats emitted = %d, registry says %d", got, want)
	}
	if st.Gateway.Ingested != uint64(len(recs)) {
		t.Errorf("ingested = %d, want %d", st.Gateway.Ingested, len(recs))
	}
	if got, want := st.Server.StreamsTotal, uint64(v.Value("lppm_server_streams_total")); got != want {
		t.Errorf("stats streams_total = %d, registry says %d", got, want)
	}
	if st.Server.StreamsTotal != 1 {
		t.Errorf("streams_total = %d, want 1", st.Server.StreamsTotal)
	}
	if st.Gateway.Shards != 3 {
		t.Errorf("shards = %d, want 3", st.Gateway.Shards)
	}
}

// TestStatsResponseShape is the golden test on the legacy wire contract:
// the exact key paths of /v1/stats must survive the registry-backed
// rewrite, or deployed scrapers break silently.
func TestStatsResponseShape(t *testing.T) {
	env := newEnv(t, baseGatewayConfig(13), nil)
	streamAll(t, env.cl, makeRecords(2, 8))

	resp, err := http.Get(env.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}

	keysOf := func(section string) []string {
		raw, ok := body[section]
		if !ok {
			t.Fatalf("response missing %q section", section)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("section %q not an object: %v", section, err)
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
	golden := map[string]string{
		"server": "active_streams,draining,dropped_windows,orphan_windows," +
			"rate_limited,streams_rejected,streams_total",
		"gateway": "dropped,emitted,flushes,generation,ingested,reconfigs," +
			"shards,swaps,users",
	}
	for section, want := range golden {
		if got := strings.Join(keysOf(section), ","); got != want {
			t.Errorf("%s keys = %s\nwant       %s", section, got, want)
		}
	}
	if _, ok := body["controller"]; ok {
		t.Error("controller section present without a controller configured")
	}
}

// TestStageHistogramsCoverPipeline drives records end to end and checks
// every stage — ingest, queue, flush, dispatch, write — recorded latency.
func TestStageHistogramsCoverPipeline(t *testing.T) {
	env := newEnv(t, baseGatewayConfig(17), nil)
	streamAll(t, env.cl, makeRecords(4, 32))

	clk := obs.NewStageClock(env.gw.Obs())
	for st := obs.StageIngest; st <= obs.StageWrite; st++ {
		h := clk.Hist(st)
		if h.Count() == 0 {
			t.Errorf("stage %v recorded no observations", st)
			continue
		}
		if h.Quantile(0.5) < 0 {
			t.Errorf("stage %v negative p50", st)
		}
	}
}

// TestEndpointRequestMetrics checks the per-endpoint counters: status
// classes split 2xx from 4xx and the in-flight gauge settles back to zero.
func TestEndpointRequestMetrics(t *testing.T) {
	env := newEnv(t, baseGatewayConfig(19), nil)
	ctx := context.Background()
	if err := env.cl.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := env.cl.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	// A bad reconfigure body → 4xx on the reconfigure endpoint.
	resp, err := http.Post(env.ts.URL+"/v1/reconfigure", "application/json",
		strings.NewReader(`{"params": {"no-such-param": 1}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 4 {
		t.Fatalf("bad reconfigure answered %d, want 4xx", resp.StatusCode)
	}

	// The client sees each response before the server's instrument
	// wrapper records it: the status-class count and the in-flight
	// decrement run after the handler returns. In-flight back at zero is
	// the observable end of that bookkeeping.
	var samples []obs.Sample
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		samples = env.gw.Obs().Gather()
		if obs.NewView(samples).Sum("lppm_http_inflight") == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("requests still in flight after every response arrived")
		}
	}
	count := func(endpoint, class string) float64 {
		for _, s := range samples {
			if s.Name == "lppm_http_requests_total" &&
				s.Labels["endpoint"] == endpoint && s.Labels["class"] == class {
				return s.Value
			}
		}
		return -1
	}
	if got := count("healthz", "2xx"); got != 1 {
		t.Errorf("healthz 2xx = %v, want 1", got)
	}
	if got := count("stats", "2xx"); got != 1 {
		t.Errorf("stats 2xx = %v, want 1", got)
	}
	if got := count("reconfigure", "4xx"); got != 1 {
		t.Errorf("reconfigure 4xx = %v, want 1", got)
	}
}

// TestClientWithObs checks the client-side instruments: request counters,
// the shared latency histogram type, and the stream record counters.
func TestClientWithObs(t *testing.T) {
	env := newEnv(t, baseGatewayConfig(23), nil)
	reg := obs.NewRegistry()
	cl := client.New(env.ts.URL, client.WithObs(reg))
	ctx := context.Background()
	if err := cl.Health(ctx); err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(2, 16)
	st, err := cl.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for _, r := range recs {
			_ = st.Send(r)
		}
		_ = st.CloseSend()
	}()
	n := 0
	for {
		if _, err := st.Recv(); err != nil {
			break
		}
		n++
	}
	if n != len(recs) {
		t.Fatalf("received %d records, want %d", n, len(recs))
	}

	v := obs.NewView(reg.Gather())
	if got := v.Value("lppm_client_stream_sent_total"); got != float64(len(recs)) {
		t.Errorf("sent counter = %v, want %d", got, len(recs))
	}
	if got := v.Value("lppm_client_stream_received_total"); got != float64(len(recs)) {
		t.Errorf("received counter = %v, want %d", got, len(recs))
	}
	var latCount uint64
	for _, s := range reg.Gather() {
		if s.Name == "lppm_client_request_ns" && s.Labels["op"] == "health" {
			latCount = s.Hist.Count
		}
	}
	if latCount != 1 {
		t.Errorf("health latency histogram count = %d, want 1", latCount)
	}
}
