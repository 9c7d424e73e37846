package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Frame layout: a 4-byte little-endian payload length, a 4-byte CRC-32C
// (Castagnoli) of the payload, then the payload itself. The payload's
// first byte is the record kind; the rest is the hand-rolled binary
// encoding below — no reflection on the hot path, and byte-for-byte
// deterministic (maps are emitted in sorted key order).
const (
	frameHeader = 8
	// maxFrame bounds a single frame. The decoder rejects larger length
	// prefixes outright, so a corrupted length field can never drive an
	// allocation by the attacker-controlled value (the journal sits on
	// the same trust boundary as the network codecs, see PR 4).
	maxFrame = 16 << 20
	// maxCount bounds every element count in a payload; combined with
	// the per-element minimum sizes it keeps corrupt counts from
	// allocating ahead of the bytes that are actually present.
	maxCount = 1 << 20
)

// Record kinds.
const (
	// kindUnstampedSnapshot, kindWindowCheckpoint and kindWindowSnapshot
	// are the layouts from before checkpoints dropped their protected
	// window: checkpoints carried the window, snapshots a per-user ring of
	// protected windows, and the oldest snapshots no generator name. They
	// are never written. They decode with the windows dropped, and a
	// legacy snapshot's State has Format FormatWindows, so recovery
	// refuses the journal by name instead of skipping it as a torn
	// rotation head.
	kindUnstampedSnapshot byte = 1
	kindDeploy            byte = 2
	kindWindowCheckpoint  byte = 3
	kindWindowSnapshot    byte = 4
	// kindCheckpoint is a checkpoint without its window; kindSnapshot is
	// State.Generator, the seed, the deployment and each user's head
	// checkpoint followed by their ring of window checkpoints.
	kindCheckpoint byte = 5
	kindSnapshot   byte = 6
)

// FormatWindows names the journal layout whose checkpoints carried their
// protected window (State.Format). A build that regenerates the delivery
// gap cannot resume such a journal: its rings hold output, not restart
// points.
const FormatWindows = "protected-window checkpoints"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Deployment is the journaled serving deployment: what Gateway.Swap
// installs, by mechanism name so recovery can re-resolve the instance.
type Deployment struct {
	Generation uint64
	Mechanism  string
	Params     map[string]float64
	Overrides  map[string]map[string]float64
}

// Checkpoint is one user's stream state at a window boundary (or at
// eviction): everything needed to rebuild the stream bit-identically.
type Checkpoint struct {
	User string
	// Generation is the deployment generation the stream last refreshed
	// to — for a window checkpoint, the one its window was protected
	// under. Recovery rebuilds streams against the journaled deployment,
	// exactly as the next flush would have.
	Generation uint64
	// RNGPos is the per-user random source's draw position (rng.Pos).
	RNGPos uint64
	// In counts input records consumed (pushed) so far.
	In uint64
	// Out counts protected records emitted so far.
	Out uint64
	// Windows counts windows flushed so far.
	Windows uint64
	// Pending is the buffered, not-yet-protected window content —
	// non-empty only for eviction checkpoints taken between boundaries.
	Pending []trace.Record
}

// UserState is one user's folded journal state: the latest checkpoint
// plus the ring of window checkpoints a delivery gap rewinds to.
type UserState struct {
	Checkpoint
	// Ring holds the user's last retainWindows window checkpoints (empty
	// Pending), oldest first: the boundaries Rewind restarts a stream
	// from.
	Ring []Checkpoint
	// DurableIn is the In counter as of the last fsync covering one of
	// this user's checkpoints — how far a resuming client may safely trim
	// its send buffer. Not serialized: it is a property of the writer's
	// sync progress, filled in by Writer.UserResume (a fold read straight
	// off disk is durable by definition, so there In == DurableIn).
	DurableIn uint64
}

// ErrGapLost reports a delivery gap the journal cannot regenerate
// bit-identically.
var ErrGapLost = errors.New("journal: delivery gap cannot be regenerated")

// Rewind decides how a client that has received delivered of this user's
// protected records resumes against a server serving generation gen. When
// the head checkpoint's output is all delivered, nothing rewinds: the
// client resends from the head's In and skips delivered − Out regenerated
// records, the tail a crash lost. Otherwise k is the newest boundary with
// Out ≤ delivered — a ring entry, or the stream's origin while the ring
// still reaches back to the first window — and the stream must restart
// there: the client resends from k.In and skips delivered − k.Out.
// ErrGapLost means no boundary reaches back to delivered, or a window
// after k was protected under a generation other than gen, so
// regenerating it would not reproduce the bytes the client missed.
func (u *UserState) Rewind(delivered, gen uint64) (k Checkpoint, rewind bool, err error) {
	if u.Out <= delivered {
		return u.Checkpoint, false, nil
	}
	i := len(u.Ring)
	for i > 0 && u.Ring[i-1].Out > delivered {
		i--
	}
	switch {
	case i > 0:
		k = u.Ring[i-1]
	case len(u.Ring) > 0 && u.Ring[0].Windows <= 1:
		k = Checkpoint{User: u.User}
	default:
		return k, false, fmt.Errorf("%w: the ring of %q no longer reaches back to output %d", ErrGapLost, u.User, delivered)
	}
	for _, w := range u.Ring[i:] {
		if w.Windows > k.Windows && w.Generation != gen {
			return k, false, fmt.Errorf("%w: window %d of %q was protected under generation %d, serving %d",
				ErrGapLost, w.Windows, u.User, w.Generation, gen)
		}
	}
	return k, true, nil
}

// State is the journal's folded content: the serving deployment and every
// user's latest checkpoint. Folding the journal and applying appends to an
// in-memory State commute — the Writer maintains its State incrementally
// and snapshots are exactly that State re-encoded, which is what makes
// replay verifiable: recovery re-folds the log and must land on the same
// value (asserted in tests).
type State struct {
	Seed int64
	// Format is empty for the layout this build writes and FormatWindows
	// for a state folded from the older one.
	Format string
	// Generator names the random generator whose draws the checkpointed
	// RNGPos values count; empty for a journal written before snapshots
	// carried it.
	Generator string
	Deploy    Deployment
	Users     map[string]*UserState
}

// NewState returns an empty state for the given seed, stamped with the
// generator this build draws from.
func NewState(seed int64) *State {
	return &State{Seed: seed, Generator: rng.Generator, Users: make(map[string]*UserState)}
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	c := &State{Seed: s.Seed, Format: s.Format, Generator: s.Generator, Deploy: cloneDeployment(s.Deploy), Users: make(map[string]*UserState, len(s.Users))}
	for u, us := range s.Users {
		c.Users[u] = us.clone()
	}
	return c
}

func (u *UserState) clone() *UserState {
	c := &UserState{Checkpoint: u.Checkpoint.clone()}
	if len(u.Ring) > 0 {
		c.Ring = make([]Checkpoint, len(u.Ring))
		for i, k := range u.Ring {
			c.Ring[i] = k.clone()
		}
	}
	return c
}

func (cp Checkpoint) clone() Checkpoint {
	cp.Pending = append([]trace.Record(nil), cp.Pending...)
	return cp
}

func cloneDeployment(d Deployment) Deployment {
	c := Deployment{Generation: d.Generation, Mechanism: d.Mechanism}
	if d.Params != nil {
		c.Params = make(map[string]float64, len(d.Params))
		for k, v := range d.Params {
			c.Params[k] = v
		}
	}
	if d.Overrides != nil {
		c.Overrides = make(map[string]map[string]float64, len(d.Overrides))
		for u, p := range d.Overrides {
			pc := make(map[string]float64, len(p))
			for k, v := range p {
				pc[k] = v
			}
			c.Overrides[u] = pc
		}
	}
	return c
}

// applyCheckpoint folds one checkpoint into the state. A window
// checkpoint (empty Pending) joins the user's ring, which keeps the last
// retainWindows of them. A checkpoint that does not advance past the
// newest ring entry — a rewind — first drops the entries it supersedes,
// so the ring never holds a boundary ahead of the stream.
func (s *State) applyCheckpoint(cp Checkpoint) {
	us := s.Users[cp.User]
	if us == nil {
		us = &UserState{}
		s.Users[cp.User] = us
	}
	us.Checkpoint = cp
	boundary := len(cp.Pending) == 0
	i := len(us.Ring)
	for i > 0 && (us.Ring[i-1].Windows > cp.Windows || boundary && us.Ring[i-1].Windows == cp.Windows) {
		i--
	}
	us.Ring = us.Ring[:i]
	if boundary {
		if len(us.Ring) == retainWindows {
			us.Ring = append(us.Ring[:0], us.Ring[1:]...)
		}
		us.Ring = append(us.Ring, cp)
	}
}

// applyDeploy folds a deployment swap into the state.
func (s *State) applyDeploy(d Deployment) { s.Deploy = d }

// entry is one decoded journal record.
type entry struct {
	kind byte
	cp   Checkpoint // kindCheckpoint
	dep  Deployment // kindDeploy
	snap *State     // kindSnapshot
}

// apply folds one entry into the state, returning the (possibly replaced)
// state — a snapshot resets it wholesale.
func (s *State) apply(e entry) *State {
	if s == nil && e.kind != kindSnapshot {
		return nil // nothing to fold onto before the first snapshot
	}
	switch e.kind {
	case kindSnapshot:
		return e.snap
	case kindDeploy:
		s.applyDeploy(e.dep)
	case kindCheckpoint:
		s.applyCheckpoint(e.cp)
	}
	return s
}

// --- encoding ---

type encoder struct{ b []byte }

func (e *encoder) u8(v byte)     { e.b = append(e.b, v) }
func (e *encoder) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *encoder) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *encoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

func (e *encoder) records(rs []trace.Record) {
	e.u32(uint32(len(rs)))
	for i := range rs {
		r := &rs[i]
		e.str(r.User)
		e.i64(r.Time.UnixNano())
		e.f64(r.Point.Lat)
		e.f64(r.Point.Lng)
	}
}

func (e *encoder) params(p map[string]float64) {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.u32(uint32(len(keys)))
	for _, k := range keys {
		e.str(k)
		e.f64(p[k])
	}
}

func (e *encoder) deployment(d Deployment) {
	e.u64(d.Generation)
	e.str(d.Mechanism)
	e.params(d.Params)
	users := make([]string, 0, len(d.Overrides))
	for u := range d.Overrides {
		users = append(users, u)
	}
	sort.Strings(users)
	e.u32(uint32(len(users)))
	for _, u := range users {
		e.str(u)
		e.params(d.Overrides[u])
	}
}

func (e *encoder) checkpoint(cp Checkpoint) {
	e.str(cp.User)
	e.u64(cp.Generation)
	e.u64(cp.RNGPos)
	e.u64(cp.In)
	e.u64(cp.Out)
	e.u64(cp.Windows)
	e.records(cp.Pending)
}

func (e *encoder) snapshot(s *State) {
	e.str(s.Generator)
	e.i64(s.Seed)
	e.deployment(s.Deploy)
	users := make([]string, 0, len(s.Users))
	for u := range s.Users {
		users = append(users, u)
	}
	sort.Strings(users)
	e.u32(uint32(len(users)))
	for _, u := range users {
		us := s.Users[u]
		e.checkpoint(us.Checkpoint)
		e.u32(uint32(len(us.Ring)))
		for _, k := range us.Ring {
			e.checkpoint(k)
		}
	}
}

// appendEntryFrame encodes e as a frame onto dst: payload length,
// CRC-32C of the payload, then the payload (kind byte first). The header
// is reserved up front and backfilled once the payload length is known,
// so no intermediate payload buffer is allocated or copied. dst retains
// its capacity across calls via the Writer's group-commit buffer.
func appendEntryFrame(dst []byte, e entry) []byte {
	head := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	enc := encoder{b: dst}
	enc.u8(e.kind)
	switch e.kind {
	case kindSnapshot:
		enc.snapshot(e.snap)
	case kindDeploy:
		enc.deployment(e.dep)
	case kindCheckpoint:
		enc.checkpoint(e.cp)
	}
	dst = enc.b
	payload := dst[head+frameHeader:]
	binary.LittleEndian.PutUint32(dst[head:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[head+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// --- decoding ---

// cursor is a bounds-checked reader over one payload. Every accessor
// checks remaining length and latches the first failure; callers check
// err once at the end. Nothing here panics on corrupt input — the fuzz
// target's core invariant.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("journal: truncated %s at offset %d", what, c.off)
	}
}

func (c *cursor) take(n int, what string) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || len(c.b)-c.off < n {
		c.fail(what)
		return nil
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b
}

func (c *cursor) u8(what string) byte {
	b := c.take(1, what)
	if b == nil {
		return 0
	}
	return b[0]
}

func (c *cursor) u32(what string) uint32 {
	b := c.take(4, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (c *cursor) u64(what string) uint64 {
	b := c.take(8, what)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (c *cursor) i64(what string) int64   { return int64(c.u64(what)) }
func (c *cursor) f64(what string) float64 { return math.Float64frombits(c.u64(what)) }

// count reads an element count and sanity-checks it against both the
// global cap and the bytes remaining (each element needs at least min
// bytes), so a corrupt count cannot drive a huge allocation.
func (c *cursor) count(min int, what string) int {
	n := c.u32(what)
	if c.err != nil {
		return 0
	}
	if n > maxCount || int(n)*min > len(c.b)-c.off {
		c.fail(what + " count")
		return 0
	}
	return int(n)
}

func (c *cursor) str(what string) string {
	n := c.u32(what)
	if c.err != nil {
		return ""
	}
	if n > maxCount {
		c.fail(what + " length")
		return ""
	}
	b := c.take(int(n), what)
	return string(b)
}

func (c *cursor) records(what string) []trace.Record {
	// user(4+) + ts(8) + lat(8) + lng(8)
	n := c.count(28, what)
	if n == 0 {
		return nil
	}
	rs := make([]trace.Record, 0, n)
	for i := 0; i < n; i++ {
		user := c.str(what + " user")
		ns := c.i64(what + " time")
		lat := c.f64(what + " lat")
		lng := c.f64(what + " lng")
		if c.err != nil {
			return nil
		}
		rs = append(rs, trace.Record{User: user, Time: time.Unix(0, ns).UTC(), Point: geo.Point{Lat: lat, Lng: lng}})
	}
	return rs
}

func (c *cursor) params(what string) map[string]float64 {
	n := c.count(12, what) // key(4+) + value(8)
	if n == 0 {
		// nil, not an empty map: a round-tripped state must DeepEqual
		// the in-memory one, where absent params stay nil.
		return nil
	}
	p := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		k := c.str(what + " key")
		v := c.f64(what + " value")
		if c.err != nil {
			return nil
		}
		p[k] = v
	}
	return p
}

func (c *cursor) deployment() Deployment {
	d := Deployment{
		Generation: c.u64("deployment generation"),
		Mechanism:  c.str("deployment mechanism"),
		Params:     c.params("deployment params"),
	}
	n := c.count(8, "overrides")
	if n > 0 {
		d.Overrides = make(map[string]map[string]float64, n)
	}
	for i := 0; i < n; i++ {
		u := c.str("override user")
		p := c.params("override params")
		if c.err != nil {
			return Deployment{}
		}
		d.Overrides[u] = p
	}
	return d
}

// checkpoint decodes one checkpoint; legacy layouts follow it with the
// protected window, which is read and dropped.
func (c *cursor) checkpoint(legacy bool) Checkpoint {
	cp := Checkpoint{
		User:       c.str("checkpoint user"),
		Generation: c.u64("checkpoint generation"),
		RNGPos:     c.u64("checkpoint rng position"),
		In:         c.u64("checkpoint in"),
		Out:        c.u64("checkpoint out"),
		Windows:    c.u64("checkpoint windows"),
		Pending:    c.records("checkpoint pending"),
	}
	if legacy {
		c.records("checkpoint window")
	}
	return cp
}

// snapshot decodes a snapshot payload of the given kind: kindSnapshot, or
// one of the legacy layouts, whose retained windows are read and dropped.
// Only kindUnstampedSnapshot lacks the generator name.
func (c *cursor) snapshot(kind byte) *State {
	var gen string
	if kind != kindUnstampedSnapshot {
		gen = c.str("snapshot generator")
	}
	legacy := kind != kindSnapshot
	s := NewState(c.i64("snapshot seed"))
	s.Generator = gen
	if legacy {
		s.Format = FormatWindows
	}
	s.Deploy = c.deployment()
	n := c.count(48, "snapshot users")
	for i := 0; i < n; i++ {
		us := &UserState{Checkpoint: c.checkpoint(legacy)}
		if legacy {
			nr := c.count(12, "snapshot retained")
			for j := 0; j < nr; j++ {
				c.u64("retained start")
				c.records("retained records")
			}
		} else {
			nr := c.count(48, "snapshot ring")
			for j := 0; j < nr; j++ {
				us.Ring = append(us.Ring, c.checkpoint(false))
			}
		}
		if c.err != nil {
			return nil
		}
		s.Users[us.User] = us
	}
	return s
}

// decodeEntry parses one payload.
func decodeEntry(payload []byte) (entry, error) {
	c := &cursor{b: payload}
	e := entry{kind: c.u8("kind")}
	switch e.kind {
	case kindSnapshot, kindWindowSnapshot, kindUnstampedSnapshot:
		e.snap = c.snapshot(e.kind)
		e.kind = kindSnapshot
	case kindDeploy:
		e.dep = c.deployment()
	case kindCheckpoint, kindWindowCheckpoint:
		e.cp = c.checkpoint(e.kind == kindWindowCheckpoint)
		e.kind = kindCheckpoint
	default:
		if c.err == nil {
			c.err = fmt.Errorf("journal: unknown record kind %d", e.kind)
		}
	}
	if c.err != nil {
		return entry{}, c.err
	}
	if c.off != len(payload) {
		return entry{}, fmt.Errorf("journal: %d trailing bytes after record", len(payload)-c.off)
	}
	return e, nil
}

// decodeSegment parses frames from data until the end or the first
// corruption: a short header, an oversized length, a CRC mismatch or an
// undecodable payload all end the scan cleanly. It returns the decoded
// entries, the number of bytes consumed by valid frames, and the error
// that stopped the scan (nil at a clean end of data) — the append-only
// log convention: a torn tail is truncation, not failure.
func decodeSegment(data []byte) (entries []entry, consumed int, err error) {
	off := 0
	for off < len(data) {
		if len(data)-off < frameHeader {
			return entries, off, fmt.Errorf("journal: torn frame header at offset %d", off)
		}
		n := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxFrame {
			return entries, off, fmt.Errorf("journal: oversized frame (%d bytes) at offset %d", n, off)
		}
		if len(data)-off-frameHeader < int(n) {
			return entries, off, fmt.Errorf("journal: torn frame payload at offset %d", off)
		}
		payload := data[off+frameHeader : off+frameHeader+int(n)]
		if crc32.Checksum(payload, castagnoli) != sum {
			return entries, off, fmt.Errorf("journal: CRC mismatch at offset %d", off)
		}
		e, derr := decodeEntry(payload)
		if derr != nil {
			return entries, off, derr
		}
		entries = append(entries, e)
		off += frameHeader + int(n)
	}
	return entries, off, nil
}
