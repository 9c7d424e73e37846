package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/lppm"
	"repro/internal/obs/tracing"
	"repro/internal/rng"
	"repro/internal/trace"
)

var (
	gwT0   = time.Date(2008, 5, 17, 12, 0, 0, 0, time.UTC)
	gwBase = geo.Point{Lat: 37.7749, Lng: -122.4194}
)

// makeRecords builds nUsers interleaved streams of perUser records each, in
// global time order — the shape of live traffic.
func makeRecords(nUsers, perUser int) []trace.Record {
	recs := make([]trace.Record, 0, nUsers*perUser)
	for i := 0; i < perUser; i++ {
		for u := 0; u < nUsers; u++ {
			recs = append(recs, trace.Record{
				User: fmt.Sprintf("u%02d", u),
				Time: gwT0.Add(time.Duration(i) * time.Minute),
				Point: gwBase.Offset(float64(i)*50+float64(u)*10,
					float64(u)*100),
			})
		}
	}
	return recs
}

// runGateway streams recs through a gateway and returns every protected
// record grouped per user, preserving emission order.
func runGateway(t *testing.T, cfg Config, recs []trace.Record) (map[string][]trace.Record, Stats) {
	t.Helper()
	g, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan map[string][]trace.Record)
	go func() {
		got := make(map[string][]trace.Record)
		for wnd := range g.Output() {
			for _, r := range wnd.Records {
				got[r.User] = append(got[r.User], r)
			}
		}
		done <- got
	}()
	if err := g.IngestAll(recs); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	return <-done, g.Stats()
}

func TestShardRoutingStablePerUser(t *testing.T) {
	for _, n := range []int{1, 3, 8} {
		for u := 0; u < 50; u++ {
			user := fmt.Sprintf("user-%d", u)
			first := shardOf(user, n)
			if first < 0 || first >= n {
				t.Fatalf("shardOf(%q, %d) = %d out of range", user, n, first)
			}
			for rep := 0; rep < 5; rep++ {
				if got := shardOf(user, n); got != first {
					t.Fatalf("shardOf(%q, %d) unstable: %d then %d", user, n, first, got)
				}
			}
		}
	}
}

func TestGatewayCountsSumToInput(t *testing.T) {
	recs := makeRecords(20, 37) // 740 records, windows don't divide evenly
	cfg := Config{
		Mechanism:  lppm.NewGeoIndistinguishability(),
		Shards:     4,
		QueueSize:  16,
		FlushEvery: 8,
		Seed:       1,
	}
	got, st := runGateway(t, cfg, recs)
	if st.Ingested != uint64(len(recs)) {
		t.Errorf("ingested %d, want %d", st.Ingested, len(recs))
	}
	if st.Emitted != uint64(len(recs)) || st.Dropped != 0 {
		t.Errorf("emitted %d dropped %d, want %d emitted, 0 dropped", st.Emitted, st.Dropped, len(recs))
	}
	var total, perShardUsers int
	for _, ss := range st.PerShard {
		total += int(ss.Emitted)
		perShardUsers += ss.Users
	}
	if total != len(recs) {
		t.Errorf("per-shard emitted sums to %d, want %d", total, len(recs))
	}
	if perShardUsers != 20 || st.Users != 20 {
		t.Errorf("users = %d (sum %d), want 20", st.Users, perShardUsers)
	}
	for u, rs := range got {
		if len(rs) != 37 {
			t.Errorf("user %s got %d records, want 37", u, len(rs))
		}
		if !sort.SliceIsSorted(rs, func(i, j int) bool { return rs[i].Time.Before(rs[j].Time) }) {
			t.Errorf("user %s output not in time order", u)
		}
	}
}

// TestGatewayMatchesBatchProtect checks stream/batch equivalence: for a
// deterministic mechanism any split agrees, and for GEO-I — which draws
// randomness strictly per record — the windowed stream must be bit-identical
// to lppm.ProtectDataset under the same seed, for every shard count.
func TestGatewayMatchesBatchProtect(t *testing.T) {
	recs := makeRecords(12, 23)
	ds := trace.NewDataset()
	perUser := make(map[string][]trace.Record)
	for _, r := range recs {
		perUser[r.User] = append(perUser[r.User], r)
	}
	for u, rs := range perUser {
		tr, err := trace.NewTrace(u, rs)
		if err != nil {
			t.Fatal(err)
		}
		ds.Add(tr)
	}
	const seed = 99
	for _, mech := range []lppm.Mechanism{
		lppm.NewCoordinateRounding(),
		lppm.NewGeoIndistinguishability(),
	} {
		want, err := lppm.ProtectDataset(ds, mech, lppm.Defaults(mech), rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 3, 5} {
			cfg := Config{Mechanism: mech, Shards: shards, FlushEvery: 7, Seed: seed}
			got, _ := runGateway(t, cfg, recs)
			for _, u := range ds.Users() {
				wantRecs := want.Trace(u).Records
				gotRecs := got[u]
				if len(gotRecs) != len(wantRecs) {
					t.Fatalf("%s shards=%d user %s: %d records, want %d",
						mech.Name(), shards, u, len(gotRecs), len(wantRecs))
				}
				for i := range wantRecs {
					if gotRecs[i] != wantRecs[i] {
						t.Fatalf("%s shards=%d user %s record %d: got %v, want %v",
							mech.Name(), shards, u, i, gotRecs[i], wantRecs[i])
					}
				}
			}
		}
	}
}

func TestGatewayCancellationDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg := Config{
		Mechanism:  lppm.NewGeoIndistinguishability(),
		Shards:     3,
		QueueSize:  8,
		FlushEvery: 100, // never reached: all output comes from the drain
		Seed:       7,
	}
	g, err := New(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(9, 4)
	if err := g.IngestAll(recs); err != nil {
		t.Fatal(err)
	}
	cancel()
	// After cancellation Ingest must refuse promptly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := g.Ingest(recs[0]); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Ingest still accepting after cancel")
		}
	}
	var emitted int
	for wnd := range g.Output() { // closes once shards drained
		emitted += len(wnd.Records)
	}
	st := g.Stats()
	if uint64(emitted) != st.Emitted {
		t.Errorf("consumed %d but stats say %d", emitted, st.Emitted)
	}
	// Everything accepted before cancel is either protected-and-emitted
	// or counted dropped — staged, queued and in-flight records
	// included; nothing simply vanishes or is double-counted.
	if accepted := int(st.Ingested); emitted+int(st.Dropped) != accepted {
		t.Errorf("emitted %d + dropped %d != ingested %d",
			emitted, st.Dropped, accepted)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.Ingest(recs[0]); err == nil {
		t.Error("Ingest after Close must fail")
	}
}

// TestGatewayDrainOrderDeterministic is the regression test for the
// nondeterministic shutdown flush: drain used to walk the user table in Go
// map iteration order, so two runs with identical seeds emitted the final
// windows in different orders. Drain must flush users in sorted order.
func TestGatewayDrainOrderDeterministic(t *testing.T) {
	recs := makeRecords(17, 5)
	cfg := Config{
		Mechanism:  lppm.NewGeoIndistinguishability(),
		Shards:     1,
		FlushEvery: 100, // never reached: every window comes from the drain
		Seed:       3,
	}
	order := func() []string {
		g, err := New(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan []string)
		go func() {
			var users []string
			for wnd := range g.Output() {
				users = append(users, wnd.Records[0].User)
			}
			done <- users
		}()
		if err := g.IngestAll(recs); err != nil {
			t.Fatal(err)
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
		return <-done
	}
	first := order()
	if len(first) != 17 {
		t.Fatalf("drained %d windows, want 17", len(first))
	}
	if !sort.StringsAreSorted(first) {
		t.Errorf("drain order not sorted: %v", first)
	}
	second := order()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("drain order unstable across identical runs: %v vs %v", first, second)
		}
	}
}

// TestGatewayCancelGraceDropsOnce covers the cancellation grace path: a
// consumer that reads one window and then disappears must cost the drain at
// most one gateway-wide grace period, every undeliverable window must be
// counted Dropped exactly once, and nothing may be double-counted.
func TestGatewayCancelGraceDropsOnce(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg := Config{
		Mechanism:  lppm.NewGeoIndistinguishability(),
		Shards:     2,
		FlushEvery: 100, // all windows come from the drain
		StageSize:  1,
		Seed:       5,
	}
	g, err := New(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(8, 6) // 48 records, one drain window per user
	gotOne := make(chan int)
	go func() {
		// Slow, then absent: consume a single window and walk away.
		wnd := <-g.Output()
		gotOne <- len(wnd.Records)
	}()
	if err := g.IngestAll(recs); err != nil {
		t.Fatal(err)
	}
	cancel()
	start := time.Now()
	g.Close()
	elapsed := time.Since(start)
	if elapsed > drainGrace+2*time.Second {
		t.Errorf("Close took %v; the grace deadline is gateway-wide, want < %v",
			elapsed, drainGrace+2*time.Second)
	}
	st := g.Stats()
	if st.Dropped == 0 {
		t.Error("an absent consumer must cost dropped windows")
	}
	if st.Ingested != uint64(len(recs)) {
		t.Errorf("ingested %d, want %d", st.Ingested, len(recs))
	}
	if st.Emitted+st.Dropped != st.Ingested {
		t.Errorf("emitted %d + dropped %d != ingested %d (windows double- or un-counted)",
			st.Emitted, st.Dropped, st.Ingested)
	}
	if n := <-gotOne; n == 0 {
		t.Error("slow consumer read an empty window")
	}
}

// TestGatewaySwapVisibleOnlyAtWindowBoundary hot-swaps ε mid-stream and
// checks the swap invariant: zero dropped records, output before the swap
// bit-identical to a never-swapped run, and every window after it protected
// wholly under the new parameters.
func TestGatewaySwapVisibleOnlyAtWindowBoundary(t *testing.T) {
	const (
		nUsers     = 8
		perUser    = 24
		flushEvery = 8
	)
	mech := lppm.NewGeoIndistinguishability()
	recs := makeRecords(nUsers, perUser)
	cfg := Config{
		Mechanism:  mech,
		Shards:     2,
		FlushEvery: flushEvery,
		Seed:       42,
	}
	baseline, _ := runGateway(t, cfg, recs)

	g, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan map[string][]trace.Record)
	go func() {
		got := make(map[string][]trace.Record)
		for wnd := range g.Output() {
			got[wnd.Records[0].User] = append(got[wnd.Records[0].User], wnd.Records...)
		}
		done <- got
	}()
	// First window per user, then wait until all of it is emitted so the
	// swap lands exactly on a window boundary.
	boundary := nUsers * flushEvery
	if err := g.IngestAll(recs[:boundary]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for g.Stats().Emitted != uint64(boundary) {
		if time.Now().After(deadline) {
			t.Fatalf("first windows never emitted: %+v", g.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	tight := lppm.Defaults(mech)
	tight[lppm.EpsilonParam] /= 10
	dep, err := core.NewDeployment(mech, tight)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Swap(dep); err != nil {
		t.Fatal(err)
	}
	if err := g.IngestAll(recs[boundary:]); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	got := <-done

	st := g.Stats()
	if st.Dropped != 0 {
		t.Errorf("swap dropped %d records, want 0", st.Dropped)
	}
	if st.Emitted != uint64(len(recs)) {
		t.Errorf("emitted %d, want %d", st.Emitted, len(recs))
	}
	if st.Swaps != 1 || st.Generation != 1 {
		t.Errorf("swaps=%d generation=%d, want 1 and 1", st.Swaps, st.Generation)
	}
	if st.Reconfigs != nUsers {
		t.Errorf("reconfigs=%d, want one per user (%d)", st.Reconfigs, nUsers)
	}
	for u, want := range baseline {
		gotRecs := got[u]
		if len(gotRecs) != len(want) {
			t.Fatalf("user %s: %d records, want %d", u, len(gotRecs), len(want))
		}
		for i := 0; i < flushEvery; i++ {
			if gotRecs[i] != want[i] {
				t.Errorf("user %s pre-swap record %d diverged from never-swapped run", u, i)
			}
		}
		for i := flushEvery; i < perUser; i++ {
			if gotRecs[i] == want[i] {
				t.Errorf("user %s post-swap record %d identical to old ε output", u, i)
			}
			if gotRecs[i].Time != want[i].Time || gotRecs[i].User != u {
				t.Errorf("user %s post-swap record %d lost identity/order", u, i)
			}
		}
	}
}

// TestGatewaySwapPerUserOverride swaps in a deployment whose base params
// are unchanged but which overrides one user: only that user's subsequent
// windows may change, every other stream must remain bit-identical to the
// never-swapped run — the refresh itself is invisible.
func TestGatewaySwapPerUserOverride(t *testing.T) {
	const (
		nUsers     = 6
		perUser    = 16
		flushEvery = 8
	)
	mech := lppm.NewGeoIndistinguishability()
	recs := makeRecords(nUsers, perUser)
	cfg := Config{
		Mechanism:  mech,
		Shards:     3,
		FlushEvery: flushEvery,
		StageSize:  1,
		Seed:       7,
	}
	baseline, _ := runGateway(t, cfg, recs)

	g, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan map[string][]trace.Record)
	go func() {
		got := make(map[string][]trace.Record)
		for wnd := range g.Output() {
			got[wnd.Records[0].User] = append(got[wnd.Records[0].User], wnd.Records...)
		}
		done <- got
	}()
	boundary := nUsers * flushEvery
	if err := g.IngestAll(recs[:boundary]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for g.Stats().Emitted != uint64(boundary) {
		if time.Now().After(deadline) {
			t.Fatalf("first windows never emitted: %+v", g.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	const overridden = "u00"
	dep, err := core.NewDeployment(mech, nil) // same base params as cfg
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Override(overridden, lppm.Params{lppm.EpsilonParam: lppm.Defaults(mech)[lppm.EpsilonParam] / 20}); err != nil {
		t.Fatal(err)
	}
	if err := g.Swap(dep); err != nil {
		t.Fatal(err)
	}
	if err := g.IngestAll(recs[boundary:]); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if st := g.Stats(); st.Dropped != 0 {
		t.Errorf("override swap dropped %d records", st.Dropped)
	}
	for u, want := range baseline {
		gotRecs := got[u]
		if len(gotRecs) != len(want) {
			t.Fatalf("user %s: %d records, want %d", u, len(gotRecs), len(want))
		}
		for i := range want {
			same := gotRecs[i] == want[i]
			switch {
			case u == overridden && i >= flushEvery:
				if same {
					t.Errorf("overridden user record %d unchanged by 20x tighter ε", i)
				}
			default:
				if !same {
					t.Errorf("user %s record %d changed by another user's override", u, i)
				}
			}
		}
	}
}

func TestGatewayConfigValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := New(ctx, Config{}); err == nil {
		t.Error("nil mechanism must fail")
	}
	if _, err := New(ctx, Config{Mechanism: lppm.NewGeoIndistinguishability(), Shards: -1}); err == nil {
		t.Error("negative shards must fail")
	}
	if _, err := New(ctx, Config{
		Mechanism: lppm.NewGeoIndistinguishability(),
		Params:    lppm.Params{"epsilon": -5},
	}); err == nil {
		t.Error("out-of-range params must fail")
	}
	if _, err := New(ctx, Config{
		Mechanism: lppm.NewGeoIndistinguishability(),
		Params:    lppm.Params{"epsilon": 0.01, "epsilonn": 0.001},
	}); err == nil {
		t.Error("undeclared base param must fail, not ride along ignored")
	}
	g, err := New(ctx, Config{Mechanism: lppm.NewGeoIndistinguishability()})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Ingest(trace.Record{Time: gwT0, Point: gwBase}); err == nil {
		t.Error("empty user must be rejected")
	}
	if err := g.Swap(&core.Deployment{Mechanism: lppm.NewGeoIndistinguishability()}); err != nil {
		t.Errorf("nil-params deployment must swap to mechanism defaults: %v", err)
	}
	if err := g.Swap(&core.Deployment{
		Mechanism: lppm.NewGeoIndistinguishability(),
		Params:    lppm.Params{"epsilon": 0.01, "epsilonn": 0.001},
	}); err == nil {
		t.Error("swap with an undeclared base param must fail")
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Error("Close must be idempotent:", err)
	}
}

// parkTap parks the shard worker inside Observe of its user's first
// window until release closes, so a test can hold records in the stage
// while the worker provably cannot take them.
type parkTap struct {
	user    string
	entered chan struct{}
	release chan struct{}
}

func newParkTap(user string) *parkTap {
	return &parkTap{user: user, entered: make(chan struct{}), release: make(chan struct{})}
}

func (p *parkTap) User(user string) TapUser {
	if user != p.user {
		return nil
	}
	return p
}

func (p *parkTap) Sample(int) bool { return true }

// Observe is called once: the test flushes the parked user once.
func (p *parkTap) Observe(_ uint64, _, _ []trace.Record) {
	close(p.entered)
	<-p.release
}

// stagedLen reads a shard's stage occupancy under its lock.
func stagedLen(s *shard) int {
	s.stageMu.Lock()
	defer s.stageMu.Unlock()
	return len(s.stage)
}

// awaitCond spins (yielding) until cond holds; the watchdog only bounds a
// failure.
func awaitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		runtime.Gosched()
	}
}

// TestGatewayFlushUserEmitsStagedTail is the network front-end's contract:
// a FlushUser issued after the last Ingest of a user must flush exactly the
// records pushed so far — including ones still sitting in the shard's stage
// buffer — and return only once the window has been handed to Output.
// An idle worker takes a partial stage at once, so the test parks the
// worker in a tap first: the records are then provably still staged when
// the flush is issued, and only FlushUser can carry them to the worker.
func TestGatewayFlushUserEmitsStagedTail(t *testing.T) {
	g, err := New(context.Background(), Config{
		Mechanism:  lppm.NewGeoIndistinguishability(),
		Shards:     1,
		FlushEvery: 64, // never reached: only FlushUser emits
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	tap := newParkTap("blk")
	g.SetTap(tap)
	windows := make(chan []trace.Record, 8)
	go func() {
		for w := range g.Output() {
			windows <- w.Records
		}
		close(windows)
	}()
	if err := g.Ingest(trace.Record{User: "blk", Time: gwT0, Point: gwBase}); err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() { parked <- g.FlushUser("blk") }()
	<-tap.entered

	s := g.shards[0]
	recs := makeRecords(2, 3) // u00, u01 × 3 records
	if err := g.IngestAll(recs); err != nil {
		t.Fatal(err)
	}
	if n := stagedLen(s); n != len(recs) {
		t.Fatalf("%d records staged behind the parked worker, want %d", n, len(recs))
	}
	flushed := make(chan error, 1)
	go func() { flushed <- g.FlushUser("u00") }()
	// The parked worker cannot take the stage, so it empties only when
	// FlushUser queues it ahead of its command.
	awaitCond(t, "FlushUser takes the stage", func() bool { return stagedLen(s) == 0 })
	close(tap.release)
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
	if w := <-windows; len(w) != 1 || w[0].User != "blk" {
		t.Fatalf("first window = %d records of %q, want the parked user's 1", len(w), w[0].User)
	}
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	// FlushUser returns only after the emit, so the window is already
	// buffered (or consumed) on Output.
	w := <-windows
	if len(w) != 3 || w[0].User != "u00" {
		t.Fatalf("flushed window = %d records of %q, want 3 of u00", len(w), w[0].User)
	}
	// Flushing a user with nothing pending — or one never seen — is a
	// no-op that still acknowledges.
	if err := g.FlushUser("u00"); err != nil {
		t.Fatal(err)
	}
	if err := g.FlushUser("never-seen"); err != nil {
		t.Fatal(err)
	}
	if err := g.FlushUser(""); err == nil {
		t.Error("FlushUser with empty user id must fail")
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	var rest int
	for w := range windows {
		if w[0].User != "u01" {
			t.Errorf("post-flush window for %q, want only u01's drain", w[0].User)
		}
		rest += len(w)
	}
	if rest != 3 {
		t.Errorf("drain emitted %d records, want u01's 3", rest)
	}
	if err := g.FlushUser("u00"); err != ErrClosed {
		t.Errorf("FlushUser after Close = %v, want ErrClosed", err)
	}
	if st := g.Stats(); st.Emitted != 7 || st.Dropped != 0 {
		t.Errorf("emitted %d dropped %d, want 7 and 0", st.Emitted, st.Dropped)
	}
}

// TestGatewayUserCommandEdgeCases holds FlushUser, EvictUser and
// SetUserTrace (on a traced gateway) to one contract, the one command
// path they share: an empty user id fails; a user with nothing pending,
// or one never seen, is an acknowledged no-op; a canceled gateway
// returns context.Canceled; a dead shard returns ErrClosed, after Close
// and after a cancellation's drain alike. The canceled case parks the
// worker in a tap first, so the shard is provably still live when the
// command finds the context done.
func TestGatewayUserCommandEdgeCases(t *testing.T) {
	remote := tracing.NewRootContext()
	commands := []struct {
		name string
		call func(g *Gateway, user string) error
	}{
		{"FlushUser", (*Gateway).FlushUser},
		{"EvictUser", (*Gateway).EvictUser},
		{"SetUserTrace", func(g *Gateway, user string) error { return g.SetUserTrace(user, remote) }},
	}
	newTraced := func(t *testing.T, ctx context.Context) (*Gateway, <-chan struct{}) {
		t.Helper()
		g, err := New(ctx, Config{
			Mechanism:  lppm.NewGeoIndistinguishability(),
			Shards:     1,
			FlushEvery: 64, // never reached: only FlushUser and the drain emit
			Seed:       9,
			Tracer:     tracing.New(tracing.Config{}),
		})
		if err != nil {
			t.Fatal(err)
		}
		drained := make(chan struct{})
		go func() {
			for range g.Output() {
			}
			close(drained)
		}()
		return g, drained
	}
	for _, c := range commands {
		t.Run(c.name, func(t *testing.T) {
			g, drained := newTraced(t, context.Background())
			if err := g.Ingest(trace.Record{User: "seen", Time: gwT0, Point: gwBase}); err != nil {
				t.Fatal(err)
			}
			if err := g.FlushUser("seen"); err != nil {
				t.Fatal(err)
			}
			if err := c.call(g, "seen"); err != nil {
				t.Errorf("%s on a user with nothing pending = %v, want nil", c.name, err)
			}
			if err := c.call(g, "never-seen"); err != nil {
				t.Errorf("%s on an unknown user = %v, want nil", c.name, err)
			}
			if err := c.call(g, ""); err == nil {
				t.Errorf("%s with an empty user id must fail", c.name)
			}
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
			<-drained
			if err := c.call(g, "seen"); !errors.Is(err, ErrClosed) {
				t.Errorf("%s after Close = %v, want ErrClosed", c.name, err)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			g, drained = newTraced(t, ctx)
			tap := newParkTap("blk")
			g.SetTap(tap)
			if err := g.Ingest(trace.Record{User: "blk", Time: gwT0, Point: gwBase}); err != nil {
				t.Fatal(err)
			}
			parked := make(chan error, 1)
			go func() { parked <- g.FlushUser("blk") }()
			<-tap.entered
			cancel()
			if err := c.call(g, "u00"); !errors.Is(err, context.Canceled) {
				t.Errorf("%s after cancel = %v, want context.Canceled", c.name, err)
			}
			close(tap.release)
			if err := <-parked; err != nil {
				t.Fatal(err)
			}
			<-drained
			if err := c.call(g, "u00"); !errors.Is(err, ErrClosed) {
				t.Errorf("%s after the canceled drain = %v, want ErrClosed", c.name, err)
			}
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Without a tracer, SetUserTrace is a no-op that cannot fail.
	g, err := New(context.Background(), Config{Mechanism: lppm.NewGeoIndistinguishability(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetUserTrace("", remote); err != nil {
		t.Errorf("SetUserTrace without a tracer = %v, want nil", err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.SetUserTrace("u00", remote); err != nil {
		t.Errorf("SetUserTrace without a tracer after Close = %v, want nil", err)
	}
}

// TestGatewayLoneRecordIsPrompt: a record staged on an idle shard reaches
// Output with no other traffic and no timer in the gateway — the worker,
// parked on an empty queue and stage, is woken by the record itself. Each
// round waits for the worker to park first, so a lost wake-up hangs until
// the watchdog fires.
func TestGatewayLoneRecordIsPrompt(t *testing.T) {
	g, err := New(context.Background(), Config{
		Mechanism:  lppm.NewGeoIndistinguishability(),
		Shards:     1,
		FlushEvery: 1,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := g.shards[0]
	watchdog := time.NewTimer(time.Minute)
	defer watchdog.Stop()
	for i := range 3 {
		awaitCond(t, "the worker parks", func() bool {
			s.stageMu.Lock()
			defer s.stageMu.Unlock()
			return s.idle
		})
		rec := trace.Record{User: "lone", Time: gwT0.Add(time.Duration(i) * time.Minute), Point: gwBase}
		if err := g.Ingest(rec); err != nil {
			t.Fatal(err)
		}
		select {
		case w := <-g.Output():
			if len(w.Records) != 1 || w.Records[0].User != "lone" {
				t.Fatalf("round %d: window = %d records of %q, want 1 of lone", i, len(w.Records), w.Records[0].User)
			}
		case <-watchdog.C:
			t.Fatalf("round %d: a lone staged record never reached Output (lost wake-up)", i)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	for range g.Output() {
	}
}

// TestGatewayIdleTakeKeepsOrder: queued batches are older than the
// stage, so a worker that takes the partial stage must not overtake a
// batch queued since it found the queue empty. With one-record windows
// each user's output order is its ingest order, and any overtaking shows
// as a timestamp going backwards.
func TestGatewayIdleTakeKeepsOrder(t *testing.T) {
	const producers, perProducer = 8, 2000
	g, err := New(context.Background(), Config{
		Mechanism:  lppm.NewGeoIndistinguishability(),
		Shards:     1,
		QueueSize:  64,
		StageSize:  2,
		FlushEvery: 1,
		Seed:       13,
	})
	if err != nil {
		t.Fatal(err)
	}
	backwards := make(chan string, 1)
	go func() {
		last := make(map[string]time.Time)
		var bad string
		for w := range g.Output() {
			r := w.Records[0]
			if prev, ok := last[r.User]; ok && !r.Time.After(prev) && bad == "" {
				bad = fmt.Sprintf("%s: %v after %v", r.User, r.Time, prev)
			}
			last[r.User] = r.Time
		}
		backwards <- bad
	}()
	var wg sync.WaitGroup
	for p := range producers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			user := fmt.Sprintf("p%d", p)
			for i := range perProducer {
				rec := trace.Record{User: user, Time: gwT0.Add(time.Duration(i) * time.Second), Point: gwBase}
				if err := g.Ingest(rec); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if bad := <-backwards; bad != "" {
		t.Fatalf("a staged record overtook a queued batch: %s", bad)
	}
}

// TestGatewayFullQueueNoDeadlock stresses the idle take against
// backpressure: with a one-batch queue, producers routinely hold the stage
// lock while blocked on the full queue, so a worker that waited for that
// lock instead of serving its queue would deadlock with them. FlushUser
// calls interleave the control path's own sends under the lock.
func TestGatewayFullQueueNoDeadlock(t *testing.T) {
	const producers, perProducer = 8, 300
	g, err := New(context.Background(), Config{
		Mechanism:  lppm.NewGeoIndistinguishability(),
		Shards:     1,
		QueueSize:  2,
		StageSize:  2,
		FlushEvery: 4,
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	consumed := make(chan int)
	go func() {
		n := 0
		for w := range g.Output() {
			n += len(w.Records)
		}
		consumed <- n
	}()
	errs := make(chan error, producers)
	var wg sync.WaitGroup
	for p := range producers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			user := fmt.Sprintf("p%d", p)
			for i := range perProducer {
				rec := trace.Record{User: user, Time: gwT0.Add(time.Duration(i) * time.Second), Point: gwBase}
				if err := g.Ingest(rec); err != nil {
					errs <- err
					return
				}
				if i%7 == 6 {
					if err := g.FlushUser(user); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	watchdog := time.NewTimer(time.Minute)
	defer watchdog.Stop()
	select {
	case <-finished:
	case <-watchdog.C:
		t.Fatalf("producers deadlocked against the shard worker: %+v", g.Stats())
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	const want = producers * perProducer
	if n := <-consumed; n != want {
		t.Errorf("consumed %d records, want %d", n, want)
	}
	if st := g.Stats(); st.Ingested != want || st.Emitted != want || st.Dropped != 0 {
		t.Errorf("ingested %d emitted %d dropped %d, want %d, %d, 0", st.Ingested, st.Emitted, st.Dropped, want, want)
	}
}

// TestGatewayFlushUserKeepsPerUserOutput: per-user protected output with an
// end-of-stream FlushUser is bit-identical to letting Close drain the tail,
// for a per-record-randomness mechanism — the file-vs-socket determinism
// argument reduced to the service layer.
func TestGatewayFlushUserKeepsPerUserOutput(t *testing.T) {
	recs := makeRecords(6, 21) // partial final window at FlushEvery=8
	mkCfg := func() Config {
		return Config{
			Mechanism:  lppm.NewGeoIndistinguishability(),
			Shards:     3,
			FlushEvery: 8,
			StageSize:  1,
			Seed:       1234,
		}
	}
	baseline, _ := runGateway(t, mkCfg(), recs)

	g, err := New(context.Background(), mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan map[string][]trace.Record)
	go func() {
		got := make(map[string][]trace.Record)
		for wnd := range g.Output() {
			for _, r := range wnd.Records {
				got[r.User] = append(got[r.User], r)
			}
		}
		done <- got
	}()
	if err := g.IngestAll(recs); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 6; u++ {
		if err := g.FlushUser(fmt.Sprintf("u%02d", u)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	got := <-done
	for u, want := range baseline {
		if len(got[u]) != len(want) {
			t.Fatalf("user %s: %d records, want %d", u, len(got[u]), len(want))
		}
		for i := range want {
			if got[u][i] != want[i] {
				t.Fatalf("user %s record %d diverged between FlushUser and drain tails", u, i)
			}
		}
	}
}

// TestGatewayDeploymentSnapshot checks the wire-facing deployment
// accessors: generation, assignment and override cloning.
func TestGatewayDeploymentSnapshot(t *testing.T) {
	mech := lppm.NewGeoIndistinguishability()
	g, err := New(context.Background(), Config{
		Mechanism: mech,
		Params:    lppm.Params{"epsilon": 0.02},
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	info := g.Deployment()
	if info.Generation != 0 || info.Mechanism != mech.Name() || info.Params["epsilon"] != 0.02 {
		t.Errorf("deployment snapshot %+v", info)
	}
	// Mutating the snapshot must not leak into serving state.
	info.Params["epsilon"] = 99
	if g.Deployment().Params["epsilon"] != 0.02 {
		t.Error("Deployment() handed out the serving params map")
	}
	dep := &core.Deployment{Mechanism: mech, Params: lppm.Params{"epsilon": 0.5}}
	if err := dep.Override("vip", lppm.Params{"epsilon": 0.9}); err != nil {
		t.Fatal(err)
	}
	if err := g.Swap(dep); err != nil {
		t.Fatal(err)
	}
	info = g.Deployment()
	if info.Generation != 1 || info.Params["epsilon"] != 0.5 || info.Overrides["vip"]["epsilon"] != 0.9 {
		t.Errorf("post-swap snapshot %+v", info)
	}
	sd := g.ServingDeployment()
	if sd.Mechanism != mech || sd.Params["epsilon"] != 0.5 || sd.ParamsFor("vip")["epsilon"] != 0.9 {
		t.Errorf("serving deployment %+v", sd)
	}
	sd.Params["epsilon"] = 77
	if g.ServingDeployment().Params["epsilon"] != 0.5 {
		t.Error("ServingDeployment() handed out the serving params map")
	}
}
