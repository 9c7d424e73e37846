package lppm

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/trace"
)

// UserStream adapts a trace-at-a-time Mechanism to online, record-at-a-time
// operation for a single user. Records are buffered and protected in windows:
// Push appends, Flush protects the pending window as a mini-trace and
// returns the protected records.
//
// The stream owns one persistent random source. Mechanisms that consume
// randomness strictly per record in order (GEO-I, Gaussian perturbation)
// therefore produce bit-identical output whether a trace is protected in one
// batch or streamed through any window split; deterministic mechanisms
// (rounding, cloaking, identity) are trivially window-invariant. Windowed
// mechanisms (Promesse, sampling) remain usable online but see each window
// independently.
//
// Failures are deterministic: a Flush whose mechanism errors rewinds the
// random source to its pre-flush position (see Flush), so an error consumes
// no randomness and cannot silently break the stream ≡ batch bit-identity.
//
// A UserStream is not safe for concurrent use; the gateway gives each user
// to exactly one shard.
type UserStream struct {
	mech    Mechanism
	params  Params
	r       *rng.Source
	user    string
	pending []trace.Record
}

// NewUserStream validates the parameters and returns a stream for the given
// user, drawing all randomness from r.
func NewUserStream(m Mechanism, p Params, user string, r *rng.Source) (*UserStream, error) {
	if user == "" {
		return nil, fmt.Errorf("lppm: stream for empty user id")
	}
	if r == nil {
		return nil, fmt.Errorf("lppm: stream for %q needs a random source", user)
	}
	if err := ValidateParams(m, p); err != nil {
		return nil, err
	}
	return &UserStream{mech: m, params: p.Clone(), r: r, user: user}, nil
}

// User returns the stream's user identifier.
func (s *UserStream) User() string { return s.user }

// Pos returns the stream's random-source draw position. Together with
// the pending buffer it is the stream's complete resumable state: a
// stream rebuilt by RestoreUserStream from (Pos, PendingRecords) is
// bit-identical to this one for all future operations.
func (s *UserStream) Pos() uint64 { return s.r.Pos() }

// Pending returns the number of buffered, not-yet-protected records.
func (s *UserStream) Pending() int { return len(s.pending) }

// PendingRecords returns the buffered, not-yet-protected records. The slice
// aliases the stream's buffer and is valid only until the next Push, Flush
// or Discard; callers that keep it (the gateway's sampling tap) must copy.
func (s *UserStream) PendingRecords() []trace.Record { return s.pending }

// Reconfigure swaps the stream's mechanism and parameter assignment, keeping
// the pending buffer and the random source: no record is lost and the
// stream's draw sequence continues uninterrupted. A nil mechanism keeps the
// current one. The new assignment takes effect at the next Flush, so a
// caller that reconfigures only between flushes — as the gateway does at
// window boundaries — preserves the invariant that every emitted window was
// protected under exactly one parameter set.
func (s *UserStream) Reconfigure(m Mechanism, p Params) error {
	if m == nil {
		m = s.mech
	}
	// Assignment-strict, like every other reconfiguration entry point: a
	// misspelled parameter name must fail, not ride along ignored.
	if err := ValidateAssignment(m, p); err != nil {
		return err
	}
	s.mech = m
	s.params = p.Clone()
	return nil
}

// RestoreUserStream rebuilds a stream from checkpointed state: it
// creates the stream, seeks the (freshly seeded) random source to the
// journaled draw position, and re-buffers the pending window. The
// result is bit-identical to the stream the checkpoint described — same
// future draws, same window split — which is the foundation of the
// crash-recovery equivalence proof (DESIGN.md §13).
func RestoreUserStream(m Mechanism, p Params, user string, r *rng.Source, pos uint64, pending []trace.Record) (*UserStream, error) {
	s, err := NewUserStream(m, p, user, r)
	if err != nil {
		return nil, err
	}
	r.SeekTo(pos)
	for _, rec := range pending {
		if err := s.Push(rec); err != nil {
			return nil, fmt.Errorf("lppm: restore %s: %w", user, err)
		}
	}
	return s, nil
}

// Push buffers one record. Records of other users are rejected.
func (s *UserStream) Push(rec trace.Record) error {
	if rec.User != s.user {
		return fmt.Errorf("lppm: record of %q pushed to stream of %q", rec.User, s.user)
	}
	s.pending = append(s.pending, rec)
	return nil
}

// Flush protects the pending window and returns the protected records in
// time order, clearing the buffer. An empty buffer flushes to nil.
//
// Failure is deterministic: on error the buffer is retained and the random
// source is rewound to its pre-flush position, so a failed flush consumes
// no randomness. A retry therefore replays exactly the draws the first
// attempt saw, and the documented stream ≡ batch bit-identity survives
// transient mechanism failures; a caller that will not retry should Discard
// instead.
func (s *UserStream) Flush() ([]trace.Record, error) {
	if len(s.pending) == 0 {
		return nil, nil
	}
	t, err := trace.NewTrace(s.user, s.pending)
	if err != nil {
		return nil, err
	}
	pos := s.r.Pos()
	pt, err := s.mech.Protect(t, s.params, s.r)
	if err != nil {
		s.r.SeekTo(pos)
		return nil, fmt.Errorf("lppm: stream flush for %s: %w", s.user, err)
	}
	s.pending = s.pending[:0]
	return pt.Records, nil
}

// Discard drops the pending window, returning how many records were
// discarded. Callers that will not retry a failed Flush use it so the same
// records are not counted again by the next window.
func (s *UserStream) Discard() int {
	n := len(s.pending)
	s.pending = s.pending[:0]
	return n
}
