package main

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/service"
	"repro/internal/trace"
)

func TestQuantileMatchesSortedReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 9, 10, 99, 100, 1000, 4137} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.ExpFloat64()
		}
		s := sortedCopy(xs)
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			// Reference: the smallest sample with at least q·n samples at
			// or below it.
			var want float64
			for _, v := range s {
				at := 0
				for _, w := range s {
					if w <= v {
						at++
					}
				}
				if float64(at) >= q*float64(n) {
					want = v
					break
				}
			}
			if got := quantile(s, q); got != want {
				t.Errorf("n=%d q=%g: quantile %v, reference %v", n, q, got, want)
			}
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {9, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("n=%d: tail percentile %g, want %g", c.n, got, c.want)
		}
		if c.want > 0 && beyond(c.n, c.want) < 10 {
			t.Errorf("n=%d: p%g has only %d samples beyond", c.n, 100*c.want, beyond(c.n, c.want))
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3.1, 1.2, 9.9, 4.4, 2.2, 8.8, 7.7}, [3]float64{2.2, 4.4, 8.8}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", c.xs, i, got, c.want[i])
			}
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value should fail")
	}
}

func TestWindowMatcherTakesDueTimesAndSkipsTails(t *testing.T) {
	const size = 4
	m := newWindowMatcher(2, size)
	// User 0 sends 10 records (two full windows and a tail of two), user
	// 1 sends 6 (one full window, tail of two); record i was due at
	// 1000·(u+1) + 10·i.
	for u, n := range []int{10, 6} {
		for i := 0; i < n; i++ {
			if m.completes(i) != ((i+1)%size == 0) {
				t.Fatalf("completes(%d) wrong", i)
			}
			m.sent(u, i, int64(1000*(u+1)+10*i))
		}
	}
	// Protected records arrive at 5000 + 7·k in arrival order k, users
	// interleaved, each user's records in order.
	arrivals := []int{0, 1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0}
	var got []int64
	for k, u := range arrivals {
		if l, ok := m.received(u, int64(5000+7*k)); ok {
			got = append(got, l)
		}
	}
	// User 0's 4th record arrives at k=6, its 8th at k=12; user 1's 4th
	// at k=7. Due times: user 0 record 3 → 1030, record 7 → 1070; user 1
	// record 3 → 2030. The tails (records 9–10 and 5–6) never complete a
	// window.
	want := []int64{5000 + 7*6 - 1030, 5000 + 7*7 - 2030, 5000 + 7*12 - 1070}
	if len(got) != len(want) {
		t.Fatalf("latencies %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("latency %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func pt(lat, lng float64) geo.Point { return geo.Point{Lat: lat, Lng: lng} }

func spanAt(start, end int64) *tracing.SpanData {
	return &tracing.SpanData{StartNS: start, EndNS: end}
}

func rec(user string, sec int64, lat, lng float64) trace.Record {
	return trace.Record{User: user, Time: time.Unix(sec, 0).UTC(), Point: pt(lat, lng)}
}

func TestDigestIsPerUserOrderSensitiveAndInterleavingFree(t *testing.T) {
	users := []string{"a", "b"}
	a := []trace.Record{rec("a", 1, 37.1, -122.1), rec("a", 2, 37.2, -122.2), rec("a", 3, 37.3, -122.3)}
	b := []trace.Record{rec("b", 1, 37.5, -122.5), rec("b", 2, 37.6, -122.6)}
	digest := func(order []trace.Record) uint64 {
		per := []userDigest{newUserDigest("a"), newUserDigest("b")}
		for _, r := range order {
			per[map[string]int{"a": 0, "b": 1}[r.User]].add(r)
		}
		return combinedDigest(users, per)
	}
	base := digest([]trace.Record{a[0], a[1], a[2], b[0], b[1]})
	if got := digest([]trace.Record{b[0], a[0], b[1], a[1], a[2]}); got != base {
		t.Error("interleaving users changed the digest")
	}
	if got := digest([]trace.Record{a[1], a[0], a[2], b[0], b[1]}); got == base {
		t.Error("reordering one user's records left the digest unchanged")
	}
	moved := a[2]
	moved.Point = pt(37.3, -122.30000000000001)
	if got := digest([]trace.Record{a[0], a[1], moved, b[0], b[1]}); got == base {
		t.Error("a one-ulp coordinate change left the digest unchanged")
	}
	if got := digest([]trace.Record{a[0], a[1], b[0], b[1]}); got == base {
		t.Error("a missing record left the digest unchanged")
	}
}

// gatewayDigests protects the fleet's first n records per user through
// an in-process gateway configured like the stream workloads' server.
func gatewayDigests(t *testing.T, f *fleet, sent []int) []userDigest {
	t.Helper()
	g, err := service.New(context.Background(), gatewayConfig(obs.Nop()))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]userDigest, len(f.users))
	for u, name := range f.users {
		got[u] = newUserDigest(name)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for w := range g.Output() {
			for _, r := range w.Records {
				got[f.idx[r.User]].add(r)
			}
		}
	}()
	for u := range f.users {
		if err := g.IngestAll(f.records(u, sent[u])); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	return got
}

func TestOracleAgreesWithGatewayAndCatchesCorruption(t *testing.T) {
	f, err := genFleet(3, 6, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	sent := make([]int, len(f.users))
	for u := range sent {
		// More than one cycle of the base trace, and never a whole
		// number of windows, so a tail flushes at Close.
		sent[u] = len(f.base[u]) + 37 + u
	}
	got := gatewayDigests(t, f, sent)
	want, err := referenceDigests(f.users, sent, f.records, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n := verify(sent, got, want); n != 0 {
		t.Fatalf("gateway output disagrees with the batch reference on %d records", n)
	}

	corrupt := append([]userDigest(nil), want...)
	corrupt[2].h ^= 1
	if n := verify(sent, got, corrupt); n != sent[2] {
		t.Errorf("corrupted reference: %d failed records, want %d", n, sent[2])
	}

	// Through the report: a wrong output makes the run incorrect, which
	// run turns into exit status 1.
	rep := &report{res: result{Correct: true, Metrics: map[string]metric{}}}
	bad := append([]userDigest(nil), got...)
	bad[0].n--
	in := &streamInput{fleet: f}
	if err := checkPass(rep, in, &passOut{sent: sent, got: bad}, "test"); err != nil {
		t.Fatal(err)
	}
	if rep.res.Correct || rep.res.Failed != sent[0] {
		t.Errorf("report after a lost record: correct=%v failed=%d, want false and %d", rep.res.Correct, rep.res.Failed, sent[0])
	}
}

func TestAdminDeltaParse(t *testing.T) {
	reg := obs.NewRegistry()
	clock := obs.NewStageClock(reg)
	emitted := []*obs.Counter{
		reg.Counter("lppm_shard_emitted_total", "", obs.Labels{"shard": "0"}),
		reg.Counter("lppm_shard_emitted_total", "", obs.Labels{"shard": "1"}),
	}
	flushes := reg.Counter("lppm_shard_flushes_total", "", obs.Labels{"shard": "0"})
	orphans := reg.Counter("lppm_server_orphan_windows_total", "", nil)
	clock.Observe(obs.StageQueue, 1, 1001) // before the phase: must cancel out
	emitted[0].Add(5)
	before, err := gatherJSON(reg)
	if err != nil {
		t.Fatal(err)
	}
	clock.Observe(obs.StageQueue, 1, 3001)
	clock.Observe(obs.StageQueue, 1, 5001)
	clock.Observe(obs.StageWrite, 1, 101)
	emitted[0].Add(64)
	emitted[1].Add(32)
	flushes.Add(3)
	orphans.Add(2)
	after, err := gatherJSON(reg)
	if err != nil {
		t.Fatal(err)
	}
	var d servingDelta
	d.add(before, after)
	if d.stageCount[1] != 2 || d.stageSumNS[1] != 8000 {
		t.Errorf("queue stage delta: count %v sum %v, want 2 and 8000", d.stageCount[1], d.stageSumNS[1])
	}
	if d.stageCount[4] != 1 || d.stageSumNS[4] != 100 {
		t.Errorf("write stage delta: count %v sum %v, want 1 and 100", d.stageCount[4], d.stageSumNS[4])
	}
	if d.emitted != 96 || d.flushes != 3 || d.failedWindows != 2 {
		t.Errorf("counters: emitted %v flushes %v failed windows %v, want 96, 3, 2", d.emitted, d.flushes, d.failedWindows)
	}
	if _, err := parseAdmin([]byte("{not json")); err == nil {
		t.Error("malformed /metrics.json parsed")
	}
}

func TestPaceAccountsLateness(t *testing.T) {
	const rate = 1000 // one slot per millisecond
	sched := make([]slot, 20)
	for j := range sched {
		sched[j] = slot{u: 0, i: j, j: j}
	}
	start := obs.Stamp()
	var sentAt []int64
	late, err := pace(context.Background(), sched, start, rate, func(s slot, due int64) error {
		now := obs.Stamp()
		if now < due {
			t.Errorf("slot %d sent %d ns before it was due", s.j, due-now)
		}
		sentAt = append(sentAt, now)
		if s.j == 5 {
			time.Sleep(15 * time.Millisecond) // a stall on the receiving side
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(late) != len(sched) {
		t.Fatalf("%d lateness samples for %d slots", len(late), len(sched))
	}
	ms := float64(time.Millisecond)
	for j, l := range late {
		if l < 0 || l > float64(sentAt[j]-start-int64(j)*int64(time.Millisecond)) {
			t.Errorf("slot %d: lateness %v outside [0, send time − due]", j, l)
		}
		// Every slot after the stall waited for it: it cannot go before
		// slot 5 was sent plus the 15 ms stall.
		if j > 5 && l < float64(5+15-j)*ms {
			t.Errorf("slot %d: lateness %.2f ms, the stall alone makes it ≥ %d ms", j, l/ms, 5+15-j)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pace(ctx, []slot{{j: 1000}}, obs.Stamp(), rate, func(slot, int64) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("pace on a canceled context: %v", err)
	}
}

func TestJudgeVerdicts(t *testing.T) {
	seq := func(from, step float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = from + step*float64(i)
		}
		return xs
	}
	parent := seq(100, 1) // spread 5.5/104.5 ≈ 5%
	for _, c := range []struct {
		name   string
		change []float64
		higher bool
		want   string
	}{
		{"clear gain", seq(120, 1), true, "gain"},
		{"within noise", seq(99, 1), true, "no regression"},
		{"regression", seq(80, 1), true, "REGRESSION"},
		{"lower is better", seq(80, 1), false, "gain"},
		{"noisy change", seq(60, 10), true, "unresolved (spread exceeds bound)"},
	} {
		v, err := judge(parent, c.change, 0.1, c.higher)
		if err != nil {
			t.Fatal(err)
		}
		if v.label != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, v.label, c.want)
		}
	}
	// Nine wins in ten pairs is the least that claims a gain.
	change := seq(120, 1)
	change[3] = 90
	if v, _ := judge(parent, change, 0.1, true); v.label != "gain" || v.wins != 9 {
		t.Errorf("nine wins: %q with %d wins", v.label, v.wins)
	}
	change[4] = 90
	if v, _ := judge(parent, change, 0.1, true); v.label == "gain" {
		t.Error("eight wins in ten claimed a gain")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if err := bf.check(); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", bf.RunSeconds)
	}
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	for _, w := range bf.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var setup, largest float64
	for _, m := range bf.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		largest = math.Max(largest, m.Bound)
		if m.Name == "setup_s" {
			setup = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be seconds, lower better: %+v", m)
			}
		}
	}
	if setup == 0 || setup < largest {
		t.Errorf("setup_s bound %v must be present and the largest (%v)", setup, largest)
	}
	for _, m := range bf.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("per-layer metric %+v breaks the contract", m)
		}
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", bf.Paths)
	}
}

func TestLogFieldParsesServerLines(t *testing.T) {
	w := newLineWatch()
	for _, l := range []string{
		`time=2026-10-16T10:00:00.000Z level=INFO msg="admin plane up" url=http://127.0.0.1:40001/metrics tracing=false`,
		`time=2026-10-16T10:00:00.001Z level=INFO msg=listening addr=127.0.0.1:40000 gen=0`,
	} {
		if _, err := w.Write([]byte(l + "\n")); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-w.ready:
	default:
		t.Fatal("both addresses logged, watcher not ready")
	}
	addr, admin := w.addrs()
	if addr != "127.0.0.1:40000" || admin != "http://127.0.0.1:40001" {
		t.Errorf("addr %q admin %q", addr, admin)
	}
}

func TestSpanCoverage(t *testing.T) {
	parent := spanAt(0, 100)
	kids := []*tracing.SpanData{spanAt(10, 30), spanAt(20, 40), spanAt(90, 150), spanAt(-5, 5)}
	if got := covered(parent, kids); got != 30+10+5 {
		t.Errorf("covered %d, want 45 (union of [10,40], [90,100], [0,5])", got)
	}
}

func TestClosedOrderAndTimeOrder(t *testing.T) {
	got := closedOrder([]int{4, 7}, 5)
	want := []slot{{4, 0, 0}, {7, 0, 1}, {4, 1, 2}, {7, 1, 3}, {4, 2, 4}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("closedOrder = %v, want %v", got, want)
		}
	}
	f, err := genFleet(5, 8, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := f.timeOrder(100)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(sched, func(a, b int) bool {
		return f.base[sched[a].u][sched[a].i].Time.Before(f.base[sched[b].u][sched[b].i].Time)
	}) {
		t.Error("open-loop schedule is not in timestamp order")
	}
	next := make([]int, len(f.users))
	for j, s := range sched {
		if s.j != j || s.i != next[s.u] {
			t.Fatalf("slot %d: %+v breaks per-user order", j, s)
		}
		next[s.u]++
	}
	if _, err := f.timeOrder(1 << 30); err == nil {
		t.Error("schedule longer than the fleet did not fail")
	}
}

func TestCompareReadsResultFiles(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, tput float64) string {
		path := dir + "/" + name
		for s := int64(1); s <= 10; s++ {
			r := row{Workload: "stream-saturate", Seed: s, result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{}}}
			for _, d := range e2eDefs {
				r.Metrics[d.name] = metric{Value: 100 + float64(s%3), Unit: d.unit}
			}
			r.Metrics["throughput_pts_s"] = metric{Value: tput + float64(s), Unit: "pts/s"}
			if err := appendRow(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	text, err := runCompare(bf, write("parent.jsonl", 1000), write("change.jsonl", 2000))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== stream-saturate: 10 parent runs, 10 change runs", "throughput_pts_s", "wins 10/10", "gain", "latency_p50_ms"} {
		if !strings.Contains(text, want) {
			t.Errorf("comparison lacks %q:\n%s", want, text)
		}
	}
}
