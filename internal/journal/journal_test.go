package journal_test

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/geo"
	"repro/internal/journal"
	"repro/internal/rng"
	"repro/internal/trace"
)

func rec(u string, ns int64, lat, lng float64) trace.Record {
	return trace.Record{User: u, Time: time.Unix(0, ns).UTC(), Point: geo.Point{Lat: lat, Lng: lng}}
}

// cp is user u's window checkpoint after `windows` two-record windows.
func cp(u string, windows uint64) journal.Checkpoint {
	return journal.Checkpoint{User: u, RNGPos: windows * 3, In: windows * 2, Out: windows * 2, Windows: windows}
}

// commitCP journals one checkpoint as a group of one.
func commitCP(w *journal.Writer, c journal.Checkpoint) error {
	var b journal.Batch
	b.AddCheckpoint(c)
	return w.Commit(&b)
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
		if err := commitCP(w, cp("alice", i)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	var b journal.Batch
	b.AddDeploy(journal.Deployment{Generation: 1, Mechanism: "rounding", Params: map[string]float64{"cell_m": 100}})
	if err := w.Commit(&b); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if err := commitCP(w, cp("bob", 1)); err != nil {
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
			if err := commitCP(w, cp("u", i)); err != nil {
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

// compactEvery mirrors the writer's rotation period in appends.
const compactEvery = 4096

// TestRotationCompacts pins segment rotation: after compactEvery appends
// the writer starts a snapshot-headed segment and removes older ones,
// and a reopen folds the same state from the survivor(s). Groups of
// three put both rotations mid-group.
func TestRotationCompacts(t *testing.T) {
	fs := faultfs.New()
	w := openFresh(t, fs, "j", journal.Options{})
	const n = 2*compactEvery + 2
	var b journal.Batch
	for i := uint64(1); i <= n; i++ {
		b.AddCheckpoint(cp("u", i))
		if i%3 != 0 && i != n {
			continue
		}
		if err := w.Commit(&b); err != nil {
			t.Fatalf("commit through %d: %v", i, err)
		}
		b.Reset()
	}
	if got := len(fs.Files()); got > 2 {
		t.Fatalf("compaction left %d segments: %v", got, fs.Files())
	}
	want := w.State()
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	_, got, _ := reopen(t, fs, "j", journal.Options{})
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("state after rotation:\n got %+v\nwant %+v", got, want)
	}
	if got.Users["u"].Windows != n {
		t.Fatalf("folded %d windows, want %d", got.Users["u"].Windows, n)
	}
	if s := w.Stats(); s.Snapshots < 3 || s.Segment != 2 {
		t.Fatalf("two rotations expected (3 snapshots, segment 2): %+v", s)
	}
}

// TestTornRotationHead simulates a crash between segment creation and
// the snapshot frame becoming durable: the new segment is skipped
// wholesale and the previous segment still folds — and doing it twice
// (a second crash during recovery) changes nothing.
func TestTornRotationHead(t *testing.T) {
	fs := faultfs.New()
	w := openFresh(t, fs, "j", journal.Options{})
	if err := commitCP(w, cp("u", 1)); err != nil {
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
		if err := commitCP(w, cp("u", 1)); err != nil {
			t.Fatalf("mode %d: clean append failed: %v", mode, err)
		}
		fs.FailAt(1, mode)
		err := commitCP(w, cp("u", 2))
		if !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("mode %d: injected fault not surfaced: %v", mode, err)
		}
		if err := commitCP(w, cp("u", 3)); err == nil {
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
	if err := commitCP(w, cp("u", 1)); err != nil {
		t.Fatalf("append: %v", err)
	}
	fs.FailAt(2, faultfs.ModeSyncDrop) // next append: write op 1 ok, sync op 2 dropped
	if err := commitCP(w, cp("u", 2)); err != nil {
		t.Fatalf("sync-drop append should report success: %v", err)
	}
	fs.FailAt(0, faultfs.ModeSyncDrop)
	fs.Crash()
	_, st, _ := reopen(t, fs, "j", journal.Options{})
	if st == nil || st.Users["u"].Windows != 1 {
		t.Fatalf("after sync-drop crash: %+v", st)
	}
}

// TestRingRewind pins the rewind decision over the ring of window
// checkpoints — 10 windows against its 8-entry bound — and the fold of a
// rewind checkpoint, which drops the boundaries it supersedes.
func TestRingRewind(t *testing.T) {
	fs := faultfs.New()
	w := openFresh(t, fs, "j", journal.Options{})
	for i := uint64(1); i <= 10; i++ {
		if err := commitCP(w, cp("u", i)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	u := w.UserResume("u")
	if u == nil {
		t.Fatalf("no resume state")
	}
	// 10 windows x 2 records: out=20; the ring keeps windows 3..10,
	// whose Out runs 6..20.
	if len(u.Ring) != 8 || u.Ring[0].Windows != 3 {
		t.Fatalf("ring %+v, want windows 3..10", u.Ring)
	}
	rewind := func(u *journal.UserState, delivered, gen uint64) (journal.Checkpoint, bool) {
		t.Helper()
		k, ok, err := u.Rewind(delivered, gen)
		if err != nil {
			t.Fatalf("rewind to %d: %v", delivered, err)
		}
		return k, ok
	}
	if k, ok := rewind(u, 20, 0); ok || k.In != 20 {
		t.Fatalf("everything delivered: rewind=%v from %d, want none from 20", ok, k.In)
	}
	if k, ok := rewind(u, 23, 0); ok || k.Out != 20 {
		t.Fatalf("a crash-lost tail: rewind=%v at out %d, want none (skip 3)", ok, k.Out)
	}
	if k, ok := rewind(u, 19, 0); !ok || k.Windows != 9 {
		t.Fatalf("mid-ring: rewind=%v to window %d, want window 9", ok, k.Windows)
	}
	if k, ok := rewind(u, 6, 0); !ok || k.Windows != 3 || k.In != 6 || k.RNGPos != 9 {
		t.Fatalf("ring start: rewind=%v to %+v, want window 3", ok, k)
	}
	if _, _, err := u.Rewind(5, 0); !errors.Is(err, journal.ErrGapLost) {
		t.Fatalf("gap older than the ring: %v, want ErrGapLost", err)
	}

	// Folding the rewind checkpoint drops windows 4..10 from the ring.
	k, _ := rewind(u, 7, 0)
	if err := commitCP(w, k); err != nil {
		t.Fatalf("append: %v", err)
	}
	u = w.UserResume("u")
	if len(u.Ring) != 1 || !reflect.DeepEqual(u.Ring[0], k) || u.Out != 6 || u.DurableIn != 6 {
		t.Fatalf("after the rewind: %+v, want head and ring at window 3", u)
	}
	// Windows regenerated under generation 1: a gap over them rewinds
	// only while generation 1 serves.
	for i := uint64(4); i <= 5; i++ {
		c := cp("u", i)
		c.Generation = 1
		if err := commitCP(w, c); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	u = w.UserResume("u")
	if _, ok := rewind(u, 6, 1); !ok {
		t.Fatalf("same-generation gap did not rewind")
	}
	if _, _, err := u.Rewind(6, 2); !errors.Is(err, journal.ErrGapLost) {
		t.Fatalf("gap across a generation change: %v, want ErrGapLost", err)
	}

	// A user still inside their first eight windows rewinds to the
	// origin, and an eviction checkpoint keeps the ring.
	for i := uint64(1); i <= 2; i++ {
		if err := commitCP(w, cp("v", i)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	ev := cp("v", 2)
	ev.In = 5
	ev.Pending = []trace.Record{rec("v", 5, 1, 2)}
	if err := commitCP(w, ev); err != nil {
		t.Fatalf("append: %v", err)
	}
	v := w.UserResume("v")
	if len(v.Ring) != 2 {
		t.Fatalf("eviction changed the ring: %+v", v.Ring)
	}
	if k, ok := rewind(v, 0, 0); !ok || !reflect.DeepEqual(k, journal.Checkpoint{User: "v"}) {
		t.Fatalf("first-window gap: rewind=%v to %+v, want the origin", ok, k)
	}

	want := w.State()
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	_, got, _ := reopen(t, fs, "j", journal.Options{})
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("refold mismatch:\n got %+v\nwant %+v", got, want)
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
	if err := commitCP(w, cp("u", 1)); err == nil {
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
	if err := commitCP(w, cp("u", 1)); !errors.Is(err, journal.ErrClosed) {
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
	w := openFresh(t, fs, "j", journal.Options{})
	var b journal.Batch
	for i := uint64(1); i <= compactEvery+7; i++ {
		b.Reset()
		b.AddCheckpoint(cp(fmt.Sprintf("u%d", i%7), i))
		if err := w.Commit(&b); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Rotation already removed segment 0; plant a stale copy of the
	// survivor under its name so the reopen scans two segments.
	live, err := fs.ReadFile("j/wal-00000001.log")
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	fs.WriteFile("j/wal-00000000.log", live)
	w2, st, info := reopen(t, fs, "j", journal.Options{})
	if info.Segments != 2 {
		t.Fatalf("reopen scanned %d segments, want 2", info.Segments)
	}
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
// whole group once it returns; Close adds no fsync; and the refold
// equals the writer's state.
func TestCommitSyncsOncePerGroup(t *testing.T) {
	fs := faultfs.New()
	w := openFresh(t, fs, "j", journal.Options{})
	base := w.Stats().Syncs
	var b journal.Batch
	for i := uint64(1); i <= 3; i++ {
		b.AddCheckpoint(cp("u", i))
	}
	b.AddDeploy(journal.Deployment{Generation: 1, Mechanism: "rounding"})
	if err := w.Commit(&b); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if got := w.Stats().Syncs - base; got != 1 {
		t.Fatalf("a 4-record group cost %d fsyncs, want 1", got)
	}
	if d := w.UserResume("u").DurableIn; d != 6 {
		t.Fatalf("durable_in %d after the group, want 6", d)
	}
	b.Reset()
	b.AddCheckpoint(cp("u", 4))
	if err := w.Commit(&b); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if got := w.Stats().Syncs - base; got != 2 {
		t.Fatalf("%d fsyncs after a second group, want 2", got)
	}
	if d := w.UserResume("u").DurableIn; d != 8 {
		t.Fatalf("durable_in %d, want 8", d)
	}
	want := w.State()
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := w.Stats().Syncs - base; got != 2 {
		t.Fatalf("Close fsynced: %d fsyncs, want 2", got)
	}
	_, got, _ := reopen(t, fs, "j", journal.Options{})
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("refold mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// segmentFormatSHA256 is the SHA-256 of the segment TestSegmentFormatPinned
// writes. It pins the on-disk format: a change to framing, field order or
// map ordering changes it, and an old journal would no longer fold. The
// segments written by the two earlier layouts are kept as testdata:
// unstamped-wal-00000000.log from before snapshots named their generator
// and windows-wal-00000000.log from before checkpoints dropped their
// protected window (TestUnstampedSnapshotDecodes, TestWindowCheckpointsDecode).
const segmentFormatSHA256 = "7bf93dfc5abe15c26ec3d22b8d1af001c599c92f73678cce9abfd7ca9503d86d"

// TestSegmentFormatPinned writes a fixed Install + Commit sequence — a
// snapshot whose deployment has overrides and whose user has a ring
// entry, window checkpoints, an eviction checkpoint carrying Pending, a
// rewind checkpoint and a deploy record — and compares the resulting
// segment's bytes against a pinned digest.
func TestSegmentFormatPinned(t *testing.T) {
	fs := faultfs.New()
	w, _, _, err := journal.Open("j", journal.Options{FS: fs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st := journal.NewState(11)
	st.Deploy = journal.Deployment{
		Generation: 2,
		Mechanism:  "geoi",
		Params:     map[string]float64{"epsilon": 0.01},
		Overrides: map[string]map[string]float64{
			"bob":   {"epsilon": 0.02},
			"carol": {"epsilon": 0.005},
		},
	}
	alice1 := journal.Checkpoint{User: "alice", Generation: 2, RNGPos: 6, In: 2, Out: 2, Windows: 1}
	st.Users["alice"] = &journal.UserState{Checkpoint: alice1, Ring: []journal.Checkpoint{alice1}}
	if err := w.Install(st); err != nil {
		t.Fatalf("Install: %v", err)
	}
	var b journal.Batch
	b.AddCheckpoint(journal.Checkpoint{User: "alice", Generation: 2, RNGPos: 12, In: 4, Out: 4, Windows: 2})
	b.AddCheckpoint(journal.Checkpoint{
		User: "bob", Generation: 2, RNGPos: 3, In: 3, Out: 2, Windows: 1,
		Pending: []trace.Record{rec("bob", 2_000_000_003, -33.86, 151.2)},
	})
	if err := w.Commit(&b); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	b.Reset()
	b.AddDeploy(journal.Deployment{
		Generation: 3,
		Mechanism:  "rounding",
		Params:     map[string]float64{"cell_m": 250},
		Overrides:  map[string]map[string]float64{"bob": {"cell_m": 500}},
	})
	b.AddCheckpoint(journal.Checkpoint{User: "bob", Generation: 3, RNGPos: 9, In: 4, Out: 4, Windows: 2})
	b.AddCheckpoint(alice1)
	if err := w.Commit(&b); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	names := fs.Files()
	if len(names) != 1 || names[0] != "j/wal-00000000.log" {
		t.Fatalf("segments %v, want exactly j/wal-00000000.log", names)
	}
	data, err := fs.ReadFile(names[0])
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != segmentFormatSHA256 {
		t.Fatalf("segment SHA-256 %s, want %s (%d bytes): the on-disk format changed", got, segmentFormatSHA256, len(data))
	}
}

// TestUnstampedSnapshotDecodes opens the segment TestSegmentFormatPinned
// wrote before snapshots carried the generator name. It must fold as a
// resumed state with an empty Generator, which recovery refuses by name;
// skipping it as a torn rotation head would drop every user's resume
// state without a word.
func TestUnstampedSnapshotDecodes(t *testing.T) {
	checkLegacySegment(t, "unstamped-wal-00000000.log", "")
}

// TestWindowCheckpointsDecode opens the segment TestSegmentFormatPinned
// wrote while checkpoints still carried their protected window. It must
// fold as a resumed state marked FormatWindows, which recovery refuses by
// name, for the same reason.
func TestWindowCheckpointsDecode(t *testing.T) {
	checkLegacySegment(t, "windows-wal-00000000.log", rng.Generator)
}

// checkLegacySegment folds one committed legacy segment and checks what
// recovery needs from it: the generator it names, FormatWindows, and the
// counters of the pinned Install + Commit sequence.
func checkLegacySegment(t *testing.T, file, generator string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	fs := faultfs.New()
	fs.WriteFile("j/wal-00000000.log", data)
	w, st, info, err := journal.Open("j", journal.Options{FS: fs})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer w.Close()
	if !info.Resumed || info.Corrupted || st == nil {
		t.Fatalf("%s not folded: %+v", file, info)
	}
	if st.Generator != generator || st.Format != journal.FormatWindows {
		t.Errorf("generator %q format %q, want %q and %q", st.Generator, st.Format, generator, journal.FormatWindows)
	}
	if st.Seed != 11 || st.Deploy.Mechanism != "rounding" || st.Deploy.Generation != 3 {
		t.Errorf("folded state: seed %d, deployment %+v", st.Seed, st.Deploy)
	}
	if bob := st.Users["bob"]; bob == nil || bob.RNGPos != 9 {
		t.Errorf("bob's checkpoint lost: %+v", bob)
	}
}
