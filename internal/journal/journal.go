// Package journal is a crash-safe append-only log for the serving
// gateway's per-user stream state. It checkpoints each user at window
// boundaries (rng draw position, window counters, pending buffer, the
// protected window just produced) and the deployment at swap time, into
// length-prefixed CRC-32C-framed segments. Every segment begins with a
// full snapshot of the folded state, so recovery cost is bounded by the
// live user set, not by history: opening the journal folds the newest
// decodable snapshot-headed segment plus its tail of incremental records.
//
// Durability contract: the journal observes windows, it does not gate
// them. The serving gateway emits a window first and hands its checkpoint
// to a write-behind pump, which commits whatever has queued as one group:
// every record appended, one write, one fsync (Writer.Commit). Group
// commit is the only durability policy — every Commit ends in an fsync,
// and the group size follows the load. A crash can therefore lose the
// unsynced tail — at most the queued checkpoints plus the group being
// written. Nothing is reported durable before an fsync covers it:
// UserState.DurableIn advances only after the sync returns, and a
// resuming client trims its send buffer only to that value, so a lost
// tail is re-sent and re-protected bit-identically from the rng position
// the last durable checkpoint holds. Torn tails — a crash mid-frame —
// truncate to the last valid record; the retained-window ring in the
// folded state lets the server re-serve the small emit-vs-delivery gap
// on reconnect (see /v1/replay in internal/server).
//
// Two bounds are fixed: a segment rotates to a fresh snapshot-headed one
// after compactEvery (4096) appends, and the ring keeps retainWindows (8)
// windows per user.
package journal

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/trace"
)

const (
	// segPattern names segments; the names sort lexically in creation
	// order.
	segPattern = "wal-%08d.log"
	// compactEvery is how many appends a segment takes before the writer
	// rotates to a fresh snapshot-headed segment.
	compactEvery = 4096
	// retainWindows bounds the per-user replay ring in the folded state.
	retainWindows = 8
)

// ErrClosed is returned by operations on a closed Writer.
var ErrClosed = errors.New("journal: writer closed")

// Options configure a Writer. The zero value is usable.
type Options struct {
	// FS is the filesystem seam; nil means the host filesystem.
	FS FS
}

// Stats is a point-in-time snapshot of writer activity, exported as
// lppm_journal_* metrics by the gateway.
type Stats struct {
	// Appends counts checkpoint/deploy records appended.
	Appends uint64
	// Syncs counts successful fsyncs: one per committed group, one per
	// snapshot written, and one more per rotation for the abandoned
	// segment's tail. Appends/Syncs approximates the achieved group size.
	Syncs uint64
	// Snapshots counts snapshot frames written (Install + rotations).
	Snapshots uint64
	// Bytes counts payload+frame bytes written.
	Bytes uint64
	// Errors counts append/sync failures (the first also latches the
	// writer's sticky error).
	Errors uint64
	// Segment is the current segment index.
	Segment int
}

// OpenInfo describes what Open found on disk.
type OpenInfo struct {
	// Resumed is true when a decodable snapshot-headed segment was found.
	Resumed bool
	// Segments is how many candidate segment files were scanned.
	Segments int
	// Entries is how many records were folded into the returned state.
	Entries int
	// Corrupted is true when any scanned segment ended in a torn or
	// corrupt frame (recovery still succeeds: the log truncates to the
	// last valid record).
	Corrupted bool
}

// Writer is the append side of the journal. It maintains the folded
// State incrementally, so State() is always exactly what re-folding the
// on-disk log would produce — the property the recovery tests assert.
//
// A Writer is safe for concurrent use; appends are serialized.
type Writer struct {
	dir string
	fs  FS

	// commitMu serializes the writing side — Install, Commit and Close —
	// and is held across a group's fsync, so nothing can rotate or close
	// the segment under a sync in flight. Commit releases mu for that
	// fsync: readers (Stats, State, UserResume) never wait on the disk.
	commitMu sync.Mutex

	mu        sync.Mutex
	f         File
	seg       int    // current segment index, -1 before Install
	appends   int    // appends into the current segment (for rotation)
	wbuf      []byte // frames encoded but not yet written
	state     *State
	stats     Stats
	stickyErr error

	// durableIn maps user → the In counter as of the last fsync that
	// covered one of their checkpoints. The folded state runs ahead of the
	// disk from a group's append until its fsync returns; UserResume
	// reports this value so a client never trims its send buffer below
	// what a crash could lose.
	durableIn map[string]uint64
	// pendingIn lists users checkpointed since the last fsync, awaiting
	// promotion into durableIn.
	pendingIn []string
}

// Open scans dir for journal segments and folds them into a State.
// It returns a Writer that cannot append yet: the caller must Install
// the (possibly adjusted) state first, which starts a fresh compacted
// segment and removes the old ones — every process start is a
// compaction. A nil State is returned when no decodable segment exists
// (fresh directory, or nothing but torn heads).
//
// The fold rule: segments are scanned in ascending order; a segment
// whose first frame is a valid snapshot resets the state and its
// remaining records fold on top. A segment without a decodable leading
// snapshot (a crash during rotation before the snapshot frame was
// durable) is skipped wholesale — its records would be incremental
// against a state that never became durable. Mid-segment corruption
// truncates that segment to its last valid record. Applying these rules
// twice is idempotent, which is what makes a crash *during recovery*
// (after Install wrote a partial segment) safe: the torn head is skipped
// and the previous segments fold exactly as before.
func Open(dir string, opts Options) (*Writer, *State, *OpenInfo, error) {
	fs := opts.FS
	if fs == nil {
		fs = OSFS{}
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, nil, nil, fmt.Errorf("journal: create dir: %w", err)
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("journal: scan dir: %w", err)
	}
	info := &OpenInfo{}
	var st *State
	maxSeg := -1
	for _, name := range names {
		var idx int
		if n, serr := fmt.Sscanf(name, segPattern, &idx); serr != nil || n != 1 {
			continue // foreign file; leave it alone
		}
		info.Segments++
		if idx > maxSeg {
			maxSeg = idx
		}
		entries, corrupt := readSegment(fs, join(dir, name))
		if corrupt {
			info.Corrupted = true
		}
		if len(entries) == 0 || entries[0].kind != kindSnapshot {
			continue // torn rotation head: skip wholesale
		}
		for _, e := range entries {
			st = st.apply(e)
			info.Entries++
		}
	}
	info.Resumed = st != nil
	w := &Writer{dir: dir, fs: fs, seg: maxSeg, stickyErr: errNoSegment}
	w.stats.Segment = maxSeg
	return w, st, info, nil
}

var errNoSegment = errors.New("journal: no segment open (Install first)")

// readSegment reads and decodes one segment file. Read errors and
// decode errors both count as corruption; whatever decoded up to that
// point is returned. apply(kindSnapshot) replaces the state outright, so
// folding a stale segment before a newer snapshot-headed one is harmless.
func readSegment(fs FS, path string) (entries []entry, corrupt bool) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, true
	}
	data, err := io.ReadAll(f)
	cerr := f.Close()
	if err != nil || cerr != nil {
		return nil, true
	}
	entries, _, derr := decodeSegment(data)
	return entries, derr != nil
}

// Install makes st the journal's state: it writes a fresh segment whose
// only content is a snapshot of st, fsyncs it, and removes every older
// segment. Called once at startup (service.Recover) before any append;
// rotation reuses the same path.
func (w *Writer) Install(st *State) error {
	w.commitMu.Lock()
	defer w.commitMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if errors.Is(w.stickyErr, ErrClosed) {
		return w.stickyErr
	}
	w.state = st.Clone()
	w.stickyErr = nil
	// Frames buffered before a failed install belong to the state being
	// replaced; never flush them into the segment about to be abandoned.
	w.wbuf = w.wbuf[:0]
	return w.rotateLocked()
}

// rotateLocked starts segment seg+1 with a snapshot of the current
// state, then deletes all older segments. Any failure latches the sticky
// error: a journal that cannot make its snapshot durable must not accept
// appends that would silently build on a torn base.
func (w *Writer) rotateLocked() error {
	if w.f != nil {
		// Flush and sync before abandoning the old segment so its tail
		// records are durable even if snapshot creation fails midway.
		if err := w.flushLocked(); err != nil {
			return err
		}
		if err := w.f.Sync(); err != nil {
			return w.fail(fmt.Errorf("journal: sync before rotate: %w", err))
		}
		w.stats.Syncs++
		if err := w.f.Close(); err != nil {
			return w.fail(fmt.Errorf("journal: close before rotate: %w", err))
		}
		w.f = nil
	}
	w.seg++
	name := fmt.Sprintf(segPattern, w.seg)
	f, err := w.fs.Create(join(w.dir, name))
	if err != nil {
		return w.fail(fmt.Errorf("journal: create segment %s: %w", name, err))
	}
	w.f = f
	w.appends = 0
	frame := appendEntryFrame(nil, entry{kind: kindSnapshot, snap: w.state})
	if err := writeAll(f, frame); err != nil {
		return w.fail(fmt.Errorf("journal: write snapshot: %w", err))
	}
	if err := f.Sync(); err != nil {
		return w.fail(fmt.Errorf("journal: sync snapshot: %w", err))
	}
	w.stats.Syncs++
	w.stats.Snapshots++
	w.stats.Bytes += uint64(len(frame))
	w.stats.Segment = w.seg
	// The snapshot just fsynced covers the entire folded state, so every
	// user's In is durable as of now.
	w.durableIn = make(map[string]uint64)
	w.pendingIn = w.pendingIn[:0]
	if w.state != nil {
		for u, us := range w.state.Users {
			w.durableIn[u] = us.In
		}
	}
	// The new snapshot-headed segment is durable; older segments are now
	// redundant. Removal failures are non-fatal (stale segments are
	// superseded at fold time) but still latch an error count.
	names, err := w.fs.ReadDir(w.dir)
	if err != nil {
		w.stats.Errors++
		return nil
	}
	for _, n := range names {
		var idx int
		if cnt, serr := fmt.Sscanf(n, segPattern, &idx); serr != nil || cnt != 1 || idx >= w.seg {
			continue
		}
		if rerr := w.fs.Remove(join(w.dir, n)); rerr != nil {
			w.stats.Errors++
		}
	}
	return nil
}

// fail latches err as the writer's sticky error and returns it.
func (w *Writer) fail(err error) error {
	w.stats.Errors++
	w.stickyErr = err
	return err
}

// writeAll writes b fully, converting short writes into errors.
func writeAll(f File, b []byte) error {
	n, err := f.Write(b)
	if err != nil {
		return err
	}
	if n != len(b) {
		return io.ErrShortWrite
	}
	return nil
}

// Batch is an ordered group of records for Commit — what the gateway's
// journal pump drains its queue into. The zero value is an empty batch.
type Batch struct{ entries []entry }

// AddCheckpoint appends a user checkpoint to the batch.
func (b *Batch) AddCheckpoint(cp Checkpoint) {
	b.entries = append(b.entries, entry{kind: kindCheckpoint, cp: cp})
}

// AddDeploy appends a deployment swap to the batch.
func (b *Batch) AddDeploy(d Deployment) {
	b.entries = append(b.entries, entry{kind: kindDeploy, dep: d})
}

// Reset empties the batch for reuse, keeping its capacity but dropping
// its records, so their windows do not stay reachable from it.
func (b *Batch) Reset() {
	clear(b.entries)
	b.entries = b.entries[:0]
}

// Commit journals b's records, in order, as one group: every frame is
// encoded into the write buffer and folded into the state under one lock
// hold, then written with one write and covered by one fsync. Per-user
// durable progress (UserResume's DurableIn) advances only after that
// fsync returns. A failed write or fsync fails the whole group: none of
// it counts as durable, the error latches, and every later append
// returns it. An empty batch is a no-op.
func (w *Writer) Commit(b *Batch) error {
	if len(b.entries) == 0 {
		return nil
	}
	w.commitMu.Lock()
	defer w.commitMu.Unlock()
	f, err := w.stage(b.entries)
	if err != nil {
		return err
	}
	// The fsync runs outside mu, so readers never wait on the disk, and
	// inside commitMu, so no rotation or Close can pull f from under it.
	serr := f.Sync()
	w.mu.Lock()
	defer w.mu.Unlock()
	if serr != nil {
		return w.fail(fmt.Errorf("journal: sync: %w", serr))
	}
	w.stats.Syncs++
	w.promoteDurableLocked()
	return nil
}

// stage appends es to the write buffer and folds them into the state,
// rotating segments every compactEvery appends, then writes the buffer
// out and returns the segment the caller must fsync.
func (w *Writer) stage(es []entry) (File, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stickyErr != nil {
		return nil, w.stickyErr
	}
	for _, e := range es {
		if w.appends >= compactEvery {
			if err := w.rotateLocked(); err != nil {
				return nil, err
			}
		}
		before := len(w.wbuf)
		w.wbuf = appendEntryFrame(w.wbuf, e)
		w.stats.Bytes += uint64(len(w.wbuf) - before)
		w.stats.Appends++
		w.appends++
		w.state = w.state.apply(e)
		if e.kind == kindCheckpoint {
			w.pendingIn = append(w.pendingIn, e.cp.User)
		}
	}
	if err := w.flushLocked(); err != nil {
		return nil, err
	}
	return w.f, nil
}

// promoteDurableLocked records the folded In of every user checkpointed
// since the last fsync: the fsync that just completed made those
// checkpoints durable. Called only after a successful sync covering the
// whole buffered tail.
func (w *Writer) promoteDurableLocked() {
	if len(w.pendingIn) == 0 {
		return
	}
	if w.durableIn == nil {
		w.durableIn = make(map[string]uint64, len(w.pendingIn))
	}
	for _, u := range w.pendingIn {
		if us := w.state.Users[u]; us != nil {
			w.durableIn[u] = us.In
		}
	}
	w.pendingIn = w.pendingIn[:0]
}

// flushLocked writes the buffered frames to the current segment. A write
// failure latches the sticky error — buffered records are lost with the
// segment tail, exactly as an unsynced tail is lost in a crash.
func (w *Writer) flushLocked() error {
	if len(w.wbuf) == 0 {
		return nil
	}
	if err := writeAll(w.f, w.wbuf); err != nil {
		return w.fail(fmt.Errorf("journal: append: %w", err))
	}
	w.wbuf = w.wbuf[:0]
	return nil
}

// State returns a deep copy of the folded journal state — what recovery
// would reconstruct if the process died now (modulo an unsynced tail).
func (w *Writer) State() *State {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.state == nil {
		return nil
	}
	return w.state.Clone()
}

// UserResume returns the replay-relevant counters and retained windows
// for one user, or nil if the journal has no checkpoint for them. Used
// by the server's /v1/resume and /v1/replay endpoints.
func (w *Writer) UserResume(user string) *UserState {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.state == nil {
		return nil
	}
	us := w.state.Users[user]
	if us == nil {
		return nil
	}
	cl := us.clone()
	// In stays the folded (live) value — what the gateway has absorbed,
	// which a client must not resend to a live server. DurableIn is what
	// a crash cannot lose: the client trims its buffer only to DurableIn,
	// so if the write-behind tail is lost it can still refill the journal
	// by resending, and deterministic re-protection keeps the output
	// bit-identical. Zero (never synced) keeps the client's whole buffer.
	cl.DurableIn = w.durableIn[user]
	return cl
}

// Stats returns a snapshot of writer activity.
func (w *Writer) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Err returns the writer's sticky error, if any (nil while healthy).
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if errors.Is(w.stickyErr, errNoSegment) {
		return nil
	}
	return w.stickyErr
}

// Close closes the current segment; every successful Commit has already
// fsynced it. The writer rejects all further operations. Close after a
// sticky append/sync failure still releases the file handle but reports
// that earlier failure: a journal that failed mid-run did not close
// cleanly, and callers treat any Close error as "journal tail may be
// torn".
func (w *Writer) Close() error {
	w.commitMu.Lock()
	defer w.commitMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if errors.Is(w.stickyErr, ErrClosed) {
		return nil
	}
	var err error
	if w.stickyErr != nil && !errors.Is(w.stickyErr, errNoSegment) {
		err = w.stickyErr
	}
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		w.f = nil
	}
	w.stickyErr = ErrClosed
	if err != nil {
		w.stats.Errors++
		return fmt.Errorf("journal: close: %w", err)
	}
	return nil
}

// ReplayFrom collects the retained protected records for user with
// absolute output index >= from, in order. It reports ok=false when the
// requested index predates the retained ring (the gap is unrecoverable
// from the journal; the client must treat its local history as
// authoritative up to the ring's start).
func (u *UserState) ReplayFrom(from uint64) (recs []trace.Record, ok bool) {
	if from >= u.Out {
		return nil, true
	}
	lo := u.Out
	for _, rw := range u.Retained {
		if rw.Start < lo {
			lo = rw.Start
		}
	}
	if from < lo {
		return nil, false
	}
	for _, rw := range u.Retained {
		for i, r := range rw.Recs {
			if rw.Start+uint64(i) >= from {
				recs = append(recs, r)
			}
		}
	}
	return recs, true
}
