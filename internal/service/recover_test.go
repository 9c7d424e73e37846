package service

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/journal"
	"repro/internal/lppm"
	"repro/internal/rng"
	"repro/internal/trace"
)

// The crash-matrix scenario: nUsers streams of perUser records, windows
// of flushEvery, a deployment swap pinned at the swapAt-records-per-user
// boundary. geoi draws randomness strictly per record, so stream output
// is 1:1 with input and bit-identity failures surface as differing
// float64 bits.
const (
	cmUsers      = 3
	cmPerUser    = 12
	cmFlushEvery = 4
	cmSwapAt     = 8 // records per user before the swap (whole windows)
	cmSeed       = 424242
)

func cmConfig() Config {
	return Config{
		Mechanism:  lppm.NewGeoIndistinguishability(),
		Params:     lppm.Params{lppm.EpsilonParam: 0.8},
		Shards:     2,
		FlushEvery: cmFlushEvery,
		QueueSize:  64,
		Seed:       cmSeed,
	}
}

func cmSwapDeployment() *core.Deployment {
	return &core.Deployment{
		Mechanism: lppm.NewGeoIndistinguishability(),
		Params:    lppm.Params{lppm.EpsilonParam: 0.5},
		Overrides: map[string]lppm.Params{"u01": {lppm.EpsilonParam: 0.9}},
	}
}

// cmInput returns each user's full input stream.
func cmInput() map[string][]trace.Record {
	byUser := make(map[string][]trace.Record, cmUsers)
	for _, r := range makeRecords(cmUsers, cmPerUser) {
		byUser[r.User] = append(byUser[r.User], r)
	}
	return byUser
}

// collectOutput consumes a gateway's output in a goroutine, grouping
// protected records per user; the returned func waits for channel close
// and hands back the result.
func collectOutput(g *Gateway) func() map[string][]trace.Record {
	done := make(chan map[string][]trace.Record, 1)
	go func() {
		got := make(map[string][]trace.Record)
		for wnd := range g.Output() {
			for _, r := range wnd.Records {
				got[r.User] = append(got[r.User], r)
			}
		}
		done <- got
	}()
	return func() map[string][]trace.Record { return <-done }
}

// feedInterleaved ingests records round-robin across users from index
// lo (per user) to hi, the shape makeRecords produces.
func feedInterleaved(t *testing.T, g *Gateway, in map[string][]trace.Record, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		for u := 0; u < cmUsers; u++ {
			user := fmt.Sprintf("u%02d", u)
			if i < len(in[user]) {
				if err := g.Ingest(in[user][i]); err != nil {
					t.Fatalf("ingest %s[%d]: %v", user, i, err)
				}
			}
		}
	}
}

// waitWindows polls until every user's journaled window count reaches
// want — the deterministic barrier that pins the swap at one window
// boundary. Checkpoints are written ahead of emission, so "visible in
// the journal" is exactly "this window is decided".
func waitWindows(t *testing.T, jw *journal.Writer, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := jw.State()
		ready := 0
		for u := 0; u < cmUsers; u++ {
			if us := st.Users[fmt.Sprintf("u%02d", u)]; us != nil && us.Windows >= want {
				ready++
			}
		}
		if ready == cmUsers {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("windows never reached %d: %+v", want, st.Users)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitFlushes is the journal-less twin of waitWindows for the reference
// run, polling the gateway's flush counter.
func waitFlushes(t *testing.T, g *Gateway, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.Stats().Flushes < want {
		if time.Now().After(deadline) {
			t.Fatalf("flushes never reached %d: %+v", want, g.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// referenceRun executes the scenario on a never-killed, never-journaled
// gateway: the ground truth every resumed run must match byte for byte.
func referenceRun(t *testing.T) map[string][]trace.Record {
	t.Helper()
	g, err := New(context.Background(), cmConfig())
	if err != nil {
		t.Fatal(err)
	}
	wait := collectOutput(g)
	in := cmInput()
	feedInterleaved(t, g, in, 0, cmSwapAt)
	waitFlushes(t, g, uint64(cmUsers*cmSwapAt/cmFlushEvery))
	if err := g.Swap(cmSwapDeployment()); err != nil {
		t.Fatal(err)
	}
	feedInterleaved(t, g, in, cmSwapAt, cmPerUser)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	return wait()
}

// journaledRun executes the full scenario against a journaling gateway
// on fs, returning its output and leaving the journal on fs.
func journaledRun(t *testing.T, fs *faultfs.FS) map[string][]trace.Record {
	t.Helper()
	g, info, err := Recover(context.Background(), cmConfig(), JournalConfig{Dir: "j", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if info.Resumed {
		t.Fatalf("fresh journal reported resumed: %+v", info)
	}
	wait := collectOutput(g)
	in := cmInput()
	feedInterleaved(t, g, in, 0, cmSwapAt)
	waitWindows(t, g.Journal(), cmSwapAt/cmFlushEvery)
	if err := g.Swap(cmSwapDeployment()); err != nil {
		t.Fatal(err)
	}
	feedInterleaved(t, g, in, cmSwapAt, cmPerUser)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	return wait()
}

// segFrameEnds parses the cumulative end offset of every frame in the
// single journal segment on fs.
func segFrameEnds(t *testing.T, fs *faultfs.FS) (string, []int) {
	t.Helper()
	files := fs.Files()
	if len(files) != 1 {
		t.Fatalf("want one segment, have %v", files)
	}
	data, err := fs.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var ends []int
	off := 0
	for off < len(data) {
		n := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += 8 + n
		ends = append(ends, off)
	}
	if off != len(data) {
		t.Fatalf("segment does not end on a frame boundary")
	}
	return files[0], ends
}

// resumeAndFinish recovers from the (possibly truncated) journal on fs
// and drives the scenario to completion: re-feeding every record the
// journal has not consumed, re-applying the swap at the same window
// boundary when the kill predates the deploy record. It returns the
// resumed gateway's output and the per-user output counts the journal
// had already covered at the kill.
func resumeAndFinish(t *testing.T, fs *faultfs.FS) (map[string][]trace.Record, map[string]uint64) {
	t.Helper()
	g, info, err := Recover(context.Background(), cmConfig(), JournalConfig{Dir: "j", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	st := g.Journal().State()
	consumed := make(map[string]uint64, cmUsers)
	out := make(map[string]uint64, cmUsers)
	for u := 0; u < cmUsers; u++ {
		user := fmt.Sprintf("u%02d", u)
		if us := st.Users[user]; us != nil {
			consumed[user] = us.In
			out[user] = us.Out
		}
	}
	wait := collectOutput(g)
	in := cmInput()
	feedRemaining := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for u := 0; u < cmUsers; u++ {
				user := fmt.Sprintf("u%02d", u)
				if uint64(i) < consumed[user] || i >= len(in[user]) {
					continue
				}
				if err := g.Ingest(in[user][i]); err != nil {
					t.Fatalf("re-ingest %s[%d]: %v", user, i, err)
				}
			}
		}
	}
	if info.Generation == 0 {
		// The kill predates the deploy record: replay the operator's
		// swap at the same barrier the original run used.
		feedRemaining(0, cmSwapAt)
		waitWindows(t, g.Journal(), cmSwapAt/cmFlushEvery)
		if err := g.Swap(cmSwapDeployment()); err != nil {
			t.Fatal(err)
		}
		feedRemaining(cmSwapAt, cmPerUser)
	} else {
		feedRemaining(0, cmPerUser)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	return wait(), out
}

// sameRecords compares two record sequences for byte-for-byte equality
// (float64 bits included: trace.Record is plain values, so == is exact).
func sameRecords(a, b []trace.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Time.Equal(b[i].Time) || a[i].User != b[i].User || a[i].Point != b[i].Point {
			return false
		}
	}
	return true
}

// TestKillAndResumeEquivalence is the crash matrix: the journaled run is
// killed at every journal-record boundary (torn-tail byte cuts are the
// journal package's own matrix), a new gateway recovers from the
// truncated journal, the remaining input is re-fed, and the resumed
// output must continue the reference run byte for byte — kill-and-resume
// ≡ never-killed, at every kill point, across a deployment swap.
func TestKillAndResumeEquivalence(t *testing.T) {
	ref := referenceRun(t)
	// The journaled full run must already match the reference.
	fullFS := faultfs.New()
	full := journaledRun(t, fullFS)
	for u, want := range ref {
		if !sameRecords(full[u], want) {
			t.Fatalf("journaled run diverged from reference for %s", u)
		}
	}
	_, ends := segFrameEnds(t, fullFS)
	// snapshot + one deploy + one checkpoint per flushed window per user.
	wantFrames := 1 + 1 + cmUsers*(cmPerUser/cmFlushEvery)
	if len(ends) != wantFrames {
		t.Fatalf("journal has %d frames, want %d", len(ends), wantFrames)
	}
	for cut := 0; cut < wantFrames; cut++ {
		cut := cut
		t.Run(fmt.Sprintf("kill_after_frame_%02d", cut), func(t *testing.T) {
			// Rebuild the journaled run fresh: frame order interleaves
			// nondeterministically across shards, so each kill point
			// cuts its own run's bytes at its own boundaries.
			fs := faultfs.New()
			journaledRun(t, fs)
			name, ends := segFrameEnds(t, fs)
			if len(ends) != wantFrames {
				t.Fatalf("rebuild produced %d frames, want %d", len(ends), wantFrames)
			}
			if err := fs.TruncateFile(name, ends[cut]); err != nil {
				t.Fatal(err)
			}
			resumed, covered := resumeAndFinish(t, fs)
			for u := 0; u < cmUsers; u++ {
				user := fmt.Sprintf("u%02d", u)
				tail := ref[user][covered[user]:]
				if !sameRecords(resumed[user], tail) {
					t.Errorf("%s: resumed output (%d records from %d) diverged from reference tail (%d records)",
						user, len(resumed[user]), covered[user], len(tail))
				}
			}
		})
	}
}

// TestDoubleCrashDuringRecovery kills the process a second time in the
// middle of recovery itself — after Open folded the truncated journal
// but while Install's fresh snapshot segment is being written — and
// then recovers again: the torn rotation head is skipped, the fold is
// unchanged, and the resumed output still continues the reference.
func TestDoubleCrashDuringRecovery(t *testing.T) {
	ref := referenceRun(t)
	fs := faultfs.New()
	journaledRun(t, fs)
	name, ends := segFrameEnds(t, fs)
	if err := fs.TruncateFile(name, ends[len(ends)/2]); err != nil {
		t.Fatal(err)
	}
	// First recovery attempt dies mid-Install: the snapshot write fails,
	// Recover surfaces the error, and the directory now holds a torn
	// higher-numbered segment next to the truncated one.
	fs.FailAt(1, faultfs.ModeError)
	if _, _, err := Recover(context.Background(), cmConfig(), JournalConfig{Dir: "j", FS: fs}); err == nil {
		t.Fatalf("Recover with failing Install must error")
	}
	fs.FailAt(0, faultfs.ModeError)
	fs.Crash()
	resumed, covered := resumeAndFinish(t, fs)
	for u := 0; u < cmUsers; u++ {
		user := fmt.Sprintf("u%02d", u)
		if !sameRecords(resumed[user], ref[user][covered[user]:]) {
			t.Errorf("%s: output diverged after double crash", user)
		}
	}
}

// TestRecoverSeedMismatch pins that resuming under a different seed is
// rejected outright: every re-seeked stream would silently diverge.
func TestRecoverSeedMismatch(t *testing.T) {
	fs := faultfs.New()
	journaledRun(t, fs)
	cfg := cmConfig()
	cfg.Seed = cmSeed + 1
	_, _, err := Recover(context.Background(), cfg, JournalConfig{Dir: "j", FS: fs})
	if err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("seed mismatch accepted: %v", err)
	}
}

// TestRecoverRefusesOtherGenerator pins that a journal whose rng positions
// count draws of another generator is refused at startup with both
// generators named: the unstamped segment written before the stamp
// existed, and a snapshot stamped with a foreign name.
func TestRecoverRefusesOtherGenerator(t *testing.T) {
	unstamped, err := os.ReadFile(filepath.Join("..", "journal", "testdata", "unstamped-wal-00000000.log"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, want string
		seed       func(fs *faultfs.FS)
	}{
		{"unstamped", rng.LegacyGenerator, func(fs *faultfs.FS) { fs.WriteFile("j/wal-00000000.log", unstamped) }},
		{"foreign", "xoshiro", func(fs *faultfs.FS) {
			w, _, _, err := journal.Open("j", journal.Options{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			st := journal.NewState(cmSeed)
			st.Generator = "xoshiro"
			st.Deploy = journal.Deployment{Mechanism: "geoi", Params: map[string]float64{lppm.EpsilonParam: 0.8}}
			if err := w.Install(st); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := faultfs.New()
			tc.seed(fs)
			before := fs.Files()
			g, _, err := Recover(context.Background(), cmConfig(), JournalConfig{Dir: "j", FS: fs})
			if err == nil {
				g.Close()
				t.Fatal("journal of another generator resumed")
			}
			for _, name := range []string{strconv.Quote(tc.want), strconv.Quote(rng.Generator)} {
				if !strings.Contains(err.Error(), name) {
					t.Errorf("error %q does not name generator %s", err, name)
				}
			}
			if after := fs.Files(); !reflect.DeepEqual(after, before) {
				t.Errorf("refused journal was rewritten: segments %v, want %v", after, before)
			}
		})
	}
}

// TestRecoverUnknownMechanism pins the resolve error path: a journaled
// deployment whose mechanism name no registry entry matches must fail
// recovery, not silently fall back to the configured mechanism.
func TestRecoverUnknownMechanism(t *testing.T) {
	fs := faultfs.New()
	w, _, _, err := journal.Open("j", journal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	st := journal.NewState(cmSeed)
	st.Deploy = journal.Deployment{Mechanism: "not-registered", Params: map[string]float64{lppm.EpsilonParam: 0.8}}
	if err := w.Install(st); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, err = Recover(context.Background(), cmConfig(), JournalConfig{Dir: "j", FS: fs})
	if err == nil || !strings.Contains(err.Error(), `unknown mechanism "not-registered"`) {
		t.Fatalf("unresolvable mechanism accepted: %v", err)
	}
}

// TestEvictRestoreBitIdentity pins EvictUser: evicting a user mid-window
// (pending records buffered, window split untouched) and letting their
// next record restore the stream must not change a single output byte,
// with and without a journal attached.
func TestEvictRestoreBitIdentity(t *testing.T) {
	in := cmInput()
	ref := referenceRunPlain(t, in)
	for _, journaled := range []bool{false, true} {
		name := "memory"
		if journaled {
			name = "journaled"
		}
		t.Run(name, func(t *testing.T) {
			var g *Gateway
			var err error
			if journaled {
				g, _, err = Recover(context.Background(), cmConfig(), JournalConfig{Dir: "j", FS: faultfs.New()})
			} else {
				g, err = New(context.Background(), cmConfig())
			}
			if err != nil {
				t.Fatal(err)
			}
			wait := collectOutput(g)
			// Feed 6 records per user (1.5 windows), evict everyone
			// mid-window, then feed the rest: restore must resume the
			// half-full pending buffer and the rng position exactly.
			feedInterleaved(t, g, in, 0, 6)
			for u := 0; u < cmUsers; u++ {
				if err := g.EvictUser(fmt.Sprintf("u%02d", u)); err != nil {
					t.Fatal(err)
				}
			}
			if got := g.Stats().Users; got != 0 {
				t.Fatalf("%d streams survive eviction", got)
			}
			feedInterleaved(t, g, in, 6, cmPerUser)
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
			got := wait()
			for u, want := range ref {
				if !sameRecords(got[u], want) {
					t.Errorf("%s: evict/restore changed output", u)
				}
			}
		})
	}
}

// referenceRunPlain runs the input with no swap and no journal.
func referenceRunPlain(t *testing.T, in map[string][]trace.Record) map[string][]trace.Record {
	t.Helper()
	g, err := New(context.Background(), cmConfig())
	if err != nil {
		t.Fatal(err)
	}
	wait := collectOutput(g)
	feedInterleaved(t, g, in, 0, cmPerUser)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	return wait()
}

// TestJournalFailureRejectsSwap pins the write-ahead rule for deploys: a
// journal that cannot persist the deploy record rejects the swap and the
// old deployment keeps serving.
func TestJournalFailureRejectsSwap(t *testing.T) {
	fs := faultfs.New()
	g, _, err := Recover(context.Background(), cmConfig(), JournalConfig{Dir: "j", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	wait := collectOutput(g)
	fs.FailAt(1, faultfs.ModeError)
	if err := g.Swap(cmSwapDeployment()); err == nil {
		t.Fatalf("swap accepted with failing journal")
	}
	if gen := g.Generation(); gen != 0 {
		t.Fatalf("generation advanced to %d on failed swap", gen)
	}
	if err := g.Close(); err == nil {
		t.Fatalf("Close must surface the sticky journal error")
	}
	wait()
}
