package service

import (
	"context"
	"encoding/binary"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/journal"
)

// syncGate is an in-memory journal filesystem whose fsyncs the test
// holds open: every Sync is counted and, while the gate is armed,
// announces itself on entered and blocks until the test sends its result
// on release (nil lets the sync through, an error fails it).
type syncGate struct {
	*faultfs.FS
	entered chan struct{}
	release chan error

	mu    sync.Mutex
	syncs int
	armed bool
}

func newSyncGate() *syncGate {
	return &syncGate{FS: faultfs.New(), entered: make(chan struct{}), release: make(chan error)}
}

func (s *syncGate) Create(name string) (journal.File, error) {
	f, err := s.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return gatedFile{File: f, gate: s}, nil
}

func (s *syncGate) arm(on bool) {
	s.mu.Lock()
	s.armed = on
	s.mu.Unlock()
}

func (s *syncGate) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs
}

type gatedFile struct {
	journal.File
	gate *syncGate
}

func (f gatedFile) Sync() error {
	g := f.gate
	g.mu.Lock()
	g.syncs++
	armed := g.armed
	g.mu.Unlock()
	if armed {
		g.entered <- struct{}{}
		if err := <-g.release; err != nil {
			return err
		}
	}
	return f.File.Sync()
}

// journalRecords lists the records after the head snapshot of the single
// segment on fs, in on-disk order: "deploy" or the checkpointed user.
// Frames are u32 length | u32 CRC | payload; a payload starts with its
// kind byte (2 deploy, 5 checkpoint), and a checkpoint continues with its
// user as u32 length | bytes.
func journalRecords(t *testing.T, fs *faultfs.FS) []string {
	t.Helper()
	files := fs.Files()
	if len(files) != 1 {
		t.Fatalf("want one segment, have %v", files)
	}
	data, err := fs.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var recs []string
	for off := 0; off < len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		p := data[off+8 : off+8+n]
		off += 8 + n
		switch p[0] {
		case 2:
			recs = append(recs, "deploy")
		case 5:
			recs = append(recs, string(p[5:5+binary.LittleEndian.Uint32(p[1:])]))
		}
	}
	return recs
}

// waitQueued spins until the journal queue holds n requests; the pump is
// parked in a held fsync, so nothing drains the queue meanwhile.
func waitQueued(t *testing.T, g *Gateway, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); len(g.jq) < n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("journal queue holds %d requests, want %d", len(g.jq), n)
		}
	}
}

// gatherValue reads one unlabeled series from the gateway's registry.
func gatherValue(g *Gateway, name string) float64 {
	for _, s := range g.Obs().Gather() {
		if s.Name == name {
			return s.Value
		}
	}
	return -1
}

// TestJournalGroupCommit pins the pump's group commit against a disk
// whose fsync the test holds open. Everything that queues behind one
// in-flight fsync — window checkpoints, a barrier, a deploy — is covered
// by exactly one further fsync; no barrier or Swap answer and no
// durable_in advance happens before that fsync returns; the records reach
// disk in enqueue order; and a failed fsync fails its whole group.
func TestJournalGroupCommit(t *testing.T) {
	fs := newSyncGate()
	g, _, err := Recover(context.Background(), cmConfig(), JournalConfig{Dir: "j", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	wait := collectOutput(g)
	in := cmInput()
	jw := g.Journal()
	next := map[string]int{}
	// flushOne ingests the user's next record and flushes it as a
	// one-record window, which enqueues its checkpoint.
	flushOne := func(user string) {
		t.Helper()
		if err := g.Ingest(in[user][next[user]]); err != nil {
			t.Fatal(err)
		}
		next[user]++
		if err := g.FlushUser(user); err != nil {
			t.Fatal(err)
		}
	}
	durable := func(user string) uint64 {
		t.Helper()
		us := jw.UserResume(user)
		if us == nil {
			t.Fatalf("no journal state for %s", user)
		}
		return us.DurableIn
	}
	unanswered := func(what string, ch chan error) {
		t.Helper()
		select {
		case err := <-ch:
			t.Fatalf("%s answered (%v) before the fsync covering it returned", what, err)
		default:
		}
	}

	fs.arm(true)
	flushOne("u00")
	<-fs.entered // group 1 = {u00}: its fsync is held
	held := fs.count()
	if d := durable("u00"); d != 0 {
		t.Fatalf("u00 durable_in %d before its fsync returned", d)
	}
	flushOne("u01")
	flushOne("u02")
	flushOne("u00")
	barrier := make(chan error, 1)
	go func() { barrier <- g.JournalBarrier() }()
	waitQueued(t, g, 4)
	swapped := make(chan error, 1)
	go func() { swapped <- g.Swap(cmSwapDeployment()) }()
	waitQueued(t, g, 5)

	fs.release <- nil // group 1 through
	<-fs.entered      // group 2: everything queued behind it, one fsync
	if got := fs.count(); got != held+1 {
		t.Fatalf("%d fsyncs after the held one, want 1", got-held)
	}
	unanswered("barrier", barrier)
	unanswered("swap", swapped)
	if gen := g.Generation(); gen != 0 {
		t.Fatalf("generation %d published before its deploy record was durable", gen)
	}
	if d := durable("u00"); d != 1 {
		t.Fatalf("u00 durable_in %d, want 1 (first group synced, second held)", d)
	}
	for _, u := range []string{"u01", "u02"} {
		if d := durable(u); d != 0 {
			t.Fatalf("%s durable_in %d before its fsync returned", u, d)
		}
	}
	want := []string{"u00", "u01", "u02", "u00", "deploy"}
	if got := journalRecords(t, fs.FS); !slices.Equal(got, want) {
		t.Fatalf("on-disk record order %v, want enqueue order %v", got, want)
	}

	fs.release <- nil
	if err := <-barrier; err != nil {
		t.Fatalf("barrier: %v", err)
	}
	if err := <-swapped; err != nil {
		t.Fatalf("swap: %v", err)
	}
	if got := fs.count(); got != held+1 {
		t.Fatalf("%d fsyncs covered the group, want 1", got-held)
	}
	for u, want := range map[string]uint64{"u00": 2, "u01": 1, "u02": 1} {
		if d := durable(u); d != want {
			t.Fatalf("%s durable_in %d after the group's fsync, want %d", u, d, want)
		}
	}
	if gen := g.Generation(); gen != 1 {
		t.Fatalf("generation %d after the acknowledged swap, want 1", gen)
	}
	if v := gatherValue(g, "lppm_journal_syncs_total"); v != float64(fs.count()) {
		t.Fatalf("lppm_journal_syncs_total = %v, want %d", v, fs.count())
	}

	// A failed fsync reaches its whole group: the Swap in it is rejected
	// and the gateway error latches.
	flushOne("u01")
	<-fs.entered // group 3 = {u01}, held
	flushOne("u02")
	swapped = make(chan error, 1)
	go func() { swapped <- g.Swap(cmSwapDeployment()) }()
	waitQueued(t, g, 2)
	fs.release <- nil // group 3 through
	<-fs.entered      // group 4 = {u02, deploy}, held
	injected := errors.New("injected fsync failure")
	fs.release <- injected
	if err := <-swapped; !errors.Is(err, injected) {
		t.Fatalf("swap in a failed group: %v, want the fsync error", err)
	}
	if gen := g.Generation(); gen != 1 {
		t.Fatalf("generation %d after a rejected swap, want 1", gen)
	}
	if d := durable("u02"); d != 1 {
		t.Fatalf("u02 durable_in %d after its fsync failed, want 1", d)
	}
	g.errMu.Lock()
	gerr := g.err
	g.errMu.Unlock()
	if !errors.Is(gerr, injected) {
		t.Fatalf("gateway error %v, want the fsync error latched", gerr)
	}
	fs.arm(false)
	if err := g.Close(); !errors.Is(err, injected) {
		t.Fatalf("Close: %v, want the latched fsync error", err)
	}
	wait()
}
