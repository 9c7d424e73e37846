package journal_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/geo"
	"repro/internal/journal"
	"repro/internal/trace"
)

func rec(u string, ns int64, lat, lng float64) trace.Record {
	return trace.Record{User: u, Time: time.Unix(0, ns).UTC(), Point: geo.Point{Lat: lat, Lng: lng}}
}

func cp(u string, windows uint64) journal.Checkpoint {
	n := int64(windows)
	return journal.Checkpoint{
		User: u, RNGPos: windows * 3, In: windows * 2, Out: windows * 2, Windows: windows,
		Window: []trace.Record{rec(u, n*100+1, 1, 2), rec(u, n*100+2, 3, 4)},
	}
}

func openFresh(t *testing.T, fs *faultfs.FS, dir string, opts journal.Options) *journal.Writer {
	t.Helper()
	opts.FS = fs
	w, st, _, err := journal.Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if st != nil {
		t.Fatalf("fresh dir folded state: %+v", st)
	}
	if err := w.Install(journal.NewState(7)); err != nil {
		t.Fatalf("Install: %v", err)
	}
	return w
}

// reopen folds the journal as a restarted process would.
func reopen(t *testing.T, fs *faultfs.FS, dir string, opts journal.Options) (*journal.Writer, *journal.State, *journal.OpenInfo) {
	t.Helper()
	opts.FS = fs
	w, st, info, err := journal.Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return w, st, info
}

// TestWriterStateMatchesRefold pins the journal's core property: the
// incrementally maintained Writer.State is exactly what re-folding the
// on-disk log produces.
func TestWriterStateMatchesRefold(t *testing.T) {
	fs := faultfs.New()
	w := openFresh(t, fs, "j", journal.Options{})
	for i := uint64(1); i <= 5; i++ {
		if err := w.AppendCheckpoint(cp("alice", i)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := w.AppendDeploy(journal.Deployment{Generation: 1, Mechanism: "rounding", Params: map[string]float64{"cell_m": 100}}); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if err := w.AppendCheckpoint(cp("bob", 1)); err != nil {
		t.Fatalf("append: %v", err)
	}
	want := w.State()
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	_, got, info := reopen(t, fs, "j", journal.Options{})
	if !info.Resumed || info.Corrupted {
		t.Fatalf("reopen info: %+v", info)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("refold mismatch:\n got %+v\nwant %+v", got, want)
	}
	if got.Users["alice"].Windows != 5 || got.Deploy.Generation != 1 {
		t.Fatalf("folded state wrong: %+v", got)
	}
}

// frameEnds returns the byte offset after each frame in a segment.
func frameEnds(t *testing.T, data []byte) []int {
	t.Helper()
	var ends []int
	off := 0
	for off < len(data) {
		if len(data)-off < 8 {
			t.Fatalf("segment has torn frame at %d", off)
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		off += 8 + n
		ends = append(ends, off)
	}
	return ends
}

// TestTornTailTruncatesToLastRecord kills the journal at every byte
// position of the final segment and checks recovery folds exactly the
// frames that were fully durable — never an error, never a panic, and
// state equal to the fold of the surviving frame prefix.
func TestTornTailTruncatesToLastRecord(t *testing.T) {
	build := func() (*faultfs.FS, string) {
		fs := faultfs.New()
		w := openFresh(t, fs, "j", journal.Options{})
		for i := uint64(1); i <= 3; i++ {
			if err := w.AppendCheckpoint(cp("u", i)); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		names := fs.Files()
		if len(names) != 1 {
			t.Fatalf("want 1 segment, have %v", names)
		}
		return fs, names[0]
	}
	fs0, name := build()
	full, err := fs0.ReadFile(name)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	ends := frameEnds(t, full) // snapshot + 3 checkpoints
	if len(ends) != 4 {
		t.Fatalf("want 4 frames, have %d", len(ends))
	}
	for cut := 0; cut <= len(full); cut++ {
		fs, _ := build()
		if err := fs.TruncateFile(name, cut); err != nil {
			t.Fatalf("truncate: %v", err)
		}
		// How many whole frames survive the cut?
		frames := 0
		for _, e := range ends {
			if cut >= e {
				frames++
			}
		}
		_, st, info := reopen(t, fs, "j", journal.Options{})
		switch {
		case frames == 0:
			// Not even the snapshot survived: nothing to resume.
			if st != nil {
				t.Fatalf("cut=%d: resumed from torn snapshot head", cut)
			}
		default:
			if st == nil {
				t.Fatalf("cut=%d: lost state with %d whole frames", cut, frames)
			}
			wantWindows := uint64(frames - 1) // snapshot + (frames-1) checkpoints
			var gotWindows uint64
			if u := st.Users["u"]; u != nil {
				gotWindows = u.Windows
			}
			if gotWindows != wantWindows {
				t.Fatalf("cut=%d: folded %d windows, want %d", cut, gotWindows, wantWindows)
			}
			// A cut exactly on a frame boundary is indistinguishable
			// from a clean shutdown; anything else must be reported.
			onBoundary := false
			for _, e := range ends {
				if cut == e {
					onBoundary = true
				}
			}
			if cut < len(full) && !onBoundary && !info.Corrupted {
				t.Fatalf("cut=%d: torn tail not reported", cut)
			}
		}
	}
}

// TestRotationCompacts pins segment rotation: after CompactEvery appends
// the writer starts a snapshot-headed segment and removes older ones,
// and a reopen folds the same state from the survivor(s).
func TestRotationCompacts(t *testing.T) {
	fs := faultfs.New()
	w := openFresh(t, fs, "j", journal.Options{CompactEvery: 4})
	for i := uint64(1); i <= 10; i++ {
		if err := w.AppendCheckpoint(cp("u", i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if got := len(fs.Files()); got > 2 {
		t.Fatalf("compaction left %d segments: %v", got, fs.Files())
	}
	want := w.State()
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	_, got, _ := reopen(t, fs, "j", journal.Options{CompactEvery: 4})
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("state after rotation:\n got %+v\nwant %+v", got, want)
	}
	if w.Stats().Snapshots < 2 {
		t.Fatalf("rotation wrote no snapshot: %+v", w.Stats())
	}
}

// TestTornRotationHead simulates a crash between segment creation and
// the snapshot frame becoming durable: the new segment is skipped
// wholesale and the previous segment still folds — and doing it twice
// (a second crash during recovery) changes nothing.
func TestTornRotationHead(t *testing.T) {
	fs := faultfs.New()
	w := openFresh(t, fs, "j", journal.Options{})
	if err := w.AppendCheckpoint(cp("u", 1)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Plant a higher-numbered segment with a torn snapshot head.
	good, err := fs.ReadFile("j/wal-00000000.log")
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	fs.WriteFile("j/wal-00000007.log", good[:5])
	for attempt := 0; attempt < 2; attempt++ {
		_, st, info := reopen(t, fs, "j", journal.Options{})
		if st == nil || st.Users["u"] == nil || st.Users["u"].Windows != 1 {
			t.Fatalf("attempt %d: torn head broke recovery: %+v", attempt, st)
		}
		if !info.Corrupted {
			t.Fatalf("attempt %d: torn head not reported", attempt)
		}
	}
	// A real recovery (Install) compacts past the torn head; the next
	// fold is clean.
	w2, st2, _ := reopen(t, fs, "j", journal.Options{})
	if err := w2.Install(st2); err != nil {
		t.Fatalf("install: %v", err)
	}
	if err := w2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	_, st3, info3 := reopen(t, fs, "j", journal.Options{})
	if info3.Corrupted || st3 == nil || st3.Users["u"].Windows != 1 {
		t.Fatalf("post-install fold: %+v %+v", st3, info3)
	}
}

// TestAppendFaults drives the writer through injected write and sync
// failures: the failed append reports the error, the writer goes sticky,
// and recovery sees only the durable prefix.
func TestAppendFaults(t *testing.T) {
	for _, mode := range []faultfs.Mode{faultfs.ModeError, faultfs.ModeShortWrite} {
		fs := faultfs.New()
		w := openFresh(t, fs, "j", journal.Options{})
		if err := w.AppendCheckpoint(cp("u", 1)); err != nil {
			t.Fatalf("mode %d: clean append failed: %v", mode, err)
		}
		fs.FailAt(1, mode)
		err := w.AppendCheckpoint(cp("u", 2))
		if !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("mode %d: injected fault not surfaced: %v", mode, err)
		}
		if err := w.AppendCheckpoint(cp("u", 3)); err == nil {
			t.Fatalf("mode %d: writer not sticky after failure", mode)
		}
		fs.FailAt(0, mode)
		fs.Crash()
		_, st, _ := reopen(t, fs, "j", journal.Options{})
		if st == nil || st.Users["u"] == nil || st.Users["u"].Windows != 1 {
			t.Fatalf("mode %d: recovery after fault: %+v", mode, st)
		}
	}
}

// TestSyncDropCrashLosesTail pins the lying-fsync case: the append
// reports success, but a crash reverts to the last truly synced prefix
// and recovery folds one window fewer — exactly the torn-tail contract.
func TestSyncDropCrashLosesTail(t *testing.T) {
	fs := faultfs.New()
	w := openFresh(t, fs, "j", journal.Options{})
	if err := w.AppendCheckpoint(cp("u", 1)); err != nil {
		t.Fatalf("append: %v", err)
	}
	fs.FailAt(2, faultfs.ModeSyncDrop) // next append: write op 1 ok, sync op 2 dropped
	if err := w.AppendCheckpoint(cp("u", 2)); err != nil {
		t.Fatalf("sync-drop append should report success: %v", err)
	}
	fs.FailAt(0, faultfs.ModeSyncDrop)
	fs.Crash()
	_, st, _ := reopen(t, fs, "j", journal.Options{})
	if st == nil || st.Users["u"].Windows != 1 {
		t.Fatalf("after sync-drop crash: %+v", st)
	}
}

// TestReplayFrom pins the reconnect-replay index math over the retained
// window ring.
func TestReplayFrom(t *testing.T) {
	fs := faultfs.New()
	w := openFresh(t, fs, "j", journal.Options{RetainWindows: 2})
	for i := uint64(1); i <= 4; i++ {
		if err := w.AppendCheckpoint(cp("u", i)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	u := w.UserResume("u")
	if u == nil {
		t.Fatalf("no resume state")
	}
	// 4 windows x 2 records: out=8; ring retains windows 3,4 → indexes 4..7.
	if recs, ok := u.ReplayFrom(8); !ok || len(recs) != 0 {
		t.Fatalf("replay at head: %v %v", recs, ok)
	}
	if recs, ok := u.ReplayFrom(5); !ok || len(recs) != 3 {
		t.Fatalf("replay mid-ring: %d records, ok=%v (want 3)", len(recs), ok)
	}
	if recs, ok := u.ReplayFrom(4); !ok || len(recs) != 4 {
		t.Fatalf("replay ring start: %d records, ok=%v (want 4)", len(recs), ok)
	}
	if _, ok := u.ReplayFrom(3); ok {
		t.Fatalf("replay before ring start must report unrecoverable")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestWriterLifecycle pins the small contracts: append before Install
// fails, Close is idempotent, operations after Close fail, UserResume of
// an unknown user is nil, and foreign files in the directory are left
// alone.
func TestWriterLifecycle(t *testing.T) {
	fs := faultfs.New()
	fs.WriteFile("j/README.txt", []byte("not a segment"))
	w, st, info, err := journal.Open("j", journal.Options{FS: fs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if st != nil || info.Segments != 0 {
		t.Fatalf("foreign file treated as segment: %+v", info)
	}
	if err := w.AppendCheckpoint(cp("u", 1)); err == nil {
		t.Fatalf("append before Install accepted")
	}
	if err := w.Install(journal.NewState(7)); err != nil {
		t.Fatalf("Install: %v", err)
	}
	if got := w.UserResume("ghost"); got != nil {
		t.Fatalf("resume for unknown user: %+v", got)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := w.AppendCheckpoint(cp("u", 1)); !errors.Is(err, journal.ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if _, err := fs.ReadFile("j/README.txt"); err != nil {
		t.Fatalf("foreign file removed: %v", err)
	}
}

// TestInstallCompactsOldSegments pins that every process start is a
// compaction: N segments in, one out, same state.
func TestInstallCompactsOldSegments(t *testing.T) {
	fs := faultfs.New()
	w := openFresh(t, fs, "j", journal.Options{CompactEvery: 2})
	for i := uint64(1); i <= 7; i++ {
		if err := w.AppendCheckpoint(cp(fmt.Sprintf("u%d", i), i)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	w2, st, _ := reopen(t, fs, "j", journal.Options{})
	if err := w2.Install(st); err != nil {
		t.Fatalf("install: %v", err)
	}
	if got := len(fs.Files()); got != 1 {
		t.Fatalf("install left %d segments: %v", got, fs.Files())
	}
	if !reflect.DeepEqual(w2.State(), st) {
		t.Fatalf("install changed state")
	}
	if err := w2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestCommitSyncsOncePerGroup pins group commit at the writer: a batch
// costs one fsync, not one per record, and durable progress covers the
// whole group once it returns; with SyncEvery>1 the cadence is checked at
// the end of the group; and the refold equals the writer's state.
func TestCommitSyncsOncePerGroup(t *testing.T) {
	for _, every := range []int{1, 4} {
		fs := faultfs.New()
		w := openFresh(t, fs, "j", journal.Options{SyncEvery: every})
		base := w.Stats().Syncs
		var b journal.Batch
		for i := uint64(1); i <= 3; i++ {
			b.AddCheckpoint(cp("u", i))
		}
		b.AddDeploy(journal.Deployment{Generation: 1, Mechanism: "rounding"})
		if err := w.Commit(&b); err != nil {
			t.Fatalf("SyncEvery=%d: commit: %v", every, err)
		}
		if got := w.Stats().Syncs - base; got != 1 {
			t.Fatalf("SyncEvery=%d: a 4-record group cost %d fsyncs, want 1", every, got)
		}
		if d := w.UserResume("u").DurableIn; d != 6 {
			t.Fatalf("SyncEvery=%d: durable_in %d after the group, want 6", every, d)
		}
		b.Reset()
		b.AddCheckpoint(cp("u", 4))
		if err := w.Commit(&b); err != nil {
			t.Fatalf("SyncEvery=%d: commit: %v", every, err)
		}
		wantSyncs, wantDurable := uint64(2), uint64(8)
		if every > 1 {
			wantSyncs, wantDurable = 1, 6 // one append short of the cadence
		}
		if got := w.Stats().Syncs - base; got != wantSyncs {
			t.Fatalf("SyncEvery=%d: %d fsyncs after a second group, want %d", every, got, wantSyncs)
		}
		if d := w.UserResume("u").DurableIn; d != wantDurable {
			t.Fatalf("SyncEvery=%d: durable_in %d, want %d", every, d, wantDurable)
		}
		want := w.State()
		if err := w.Close(); err != nil {
			t.Fatalf("SyncEvery=%d: close: %v", every, err)
		}
		_, got, _ := reopen(t, fs, "j", journal.Options{})
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("SyncEvery=%d: refold mismatch:\n got %+v\nwant %+v", every, got, want)
		}
	}
}
