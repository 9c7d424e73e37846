package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/trace"
)

// ResumeInfo is POST /v1/resume's answer for one user.
type ResumeInfo = server.ResumeResponse

// Resume asks POST /v1/resume where user's stream resumes, given the
// number of the user's protected records the client holds. The server may
// rewind the stream to do so. 410 (as *APIError) means the gap can no
// longer be regenerated; a server running without a journal answers 404:
// resume-by-counter is exactly the capability the journal adds.
func (c *Client) Resume(ctx context.Context, user string, delivered uint64) (info ResumeInfo, err error) {
	done := c.track("resume")
	defer func() { done(err) }()
	err = c.postJSON(ctx, "/v1/resume", server.ResumeRequest{User: user, Delivered: delivered}, &info)
	return info, err
}

// Sleeper waits for d or until ctx is done, whichever comes first. Tests
// inject one to make backoff deterministic and instantaneous.
type Sleeper func(ctx context.Context, d time.Duration) error

// sleepCtx is the default Sleeper: a real timer, stopped on cancellation.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// BackoffConfig shapes a ResumableStream's reconnect schedule: capped
// exponential, delay(n) = min(Base<<n, Max), Retries attempts per outage.
// The zero value means 100ms base, 5s cap, 8 attempts, real sleeping.
type BackoffConfig struct {
	Base    time.Duration
	Max     time.Duration
	Retries int
	Sleep   Sleeper
}

func (b BackoffConfig) withDefaults() BackoffConfig {
	if b.Base <= 0 {
		b.Base = 100 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 5 * time.Second
	}
	if b.Retries <= 0 {
		b.Retries = 8
	}
	if b.Sleep == nil {
		b.Sleep = sleepCtx
	}
	return b
}

// delay is the backoff before attempt n (0-based): Base<<n capped at Max.
func (b BackoffConfig) delay(n int) time.Duration {
	if n >= 62 {
		return b.Max
	}
	d := b.Base << n
	if d <= 0 || d > b.Max {
		d = b.Max
	}
	return d
}

// ResumableStream is a duplex record stream that survives server restarts
// and connection loss. It buffers every record it sends; when the
// underlying stream dies it reconnects with capped exponential backoff and
// resynchronizes against the server's stream journal. Every gap closes by
// regeneration — re-protecting resent inputs from a checkpointed rng
// position is deterministic — so one rule covers both ways a stream breaks:
//
//   - /v1/resume takes, per user, how many protected records Recv has
//     returned (d). Windows the server emitted but the client never
//     received make the server rewind the user's stream to its newest
//     window checkpoint k with Out_k ≤ d; a crash that lost windows the
//     client did receive leaves the server behind d instead.
//   - Either way the answer names where to resend from (In_k, or the live
//     absorbed count) and how many regenerated records to skip by exact
//     count (d − Out_k). The skipped records are bit-identical to the ones
//     already delivered, so the application sees every protected record
//     exactly once, byte-identical to an uninterrupted run.
//   - The send buffer is trimmed only to min(durable_in, resend-from):
//     a crash can roll the server back to durable_in, and the resend
//     starts at resend-from.
//
// Against a journal-less server (404 on /v1/resume) the helper degrades to
// a count-dedupe fallback: it re-sends everything and drops the first
// delivered_u re-protected records. That keeps counts right after a clean
// server restart but cannot be bit-identical — bit-identity is precisely
// what the journal adds.
//
// One goroutine may call Send/CloseSend while another calls Recv; either
// side may observe a failure first, and reconnection is serialized
// internally. Send buffers grow with the journal's checkpoint lag and the
// undelivered windows (at most the ring's eight windows per user), not
// with stream length.
type ResumableStream struct {
	c  *Client
	bo BackoffConfig

	mu        sync.Mutex
	st        *Stream
	gen       uint64 // bumped on every successful reconnect
	sent      map[string][]trace.Record
	base      map[string]uint64 // absolute index of sent[u][0]
	delivered map[string]uint64
	skip      map[string]uint64 // regenerated records already delivered
	order     []string          // users in first-send order
	sendDone  bool
	closed    bool
	dead      error // terminal failure; all operations return it
}

// ResumableStream opens a resumable duplex stream. The initial dial also
// runs the resync protocol, so a client restarting after its own crash can
// pre-seed nothing and still resume: the server's journal is authoritative
// for what was absorbed.
func (c *Client) ResumableStream(ctx context.Context, bo BackoffConfig) (*ResumableStream, error) {
	r := &ResumableStream{
		c:         c,
		bo:        bo.withDefaults(),
		sent:      make(map[string][]trace.Record),
		base:      make(map[string]uint64),
		delivered: make(map[string]uint64),
		skip:      make(map[string]uint64),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.resyncLocked(ctx); err != nil {
		return nil, err
	}
	return r, nil
}

// Send pushes one record, reconnecting and re-syncing on failure. The
// record is buffered before the wire write, and every resync from then on
// resends it, so a mid-send failure is covered by the reconnect's resend
// (journal-trimmed — no double draw). Send therefore writes rec only to the
// stream that was current when it was buffered: after a reconnect, writing
// it again would hand the server a duplicate to protect.
func (r *ResumableStream) Send(ctx context.Context, rec trace.Record) error {
	st, gen, err := r.buffer(rec)
	if err != nil {
		return err
	}
	if err := st.Send(rec); err == nil {
		return nil
	}
	return r.recover(ctx, gen)
}

// CloseSend ends the sending half. After it, a reconnect re-closes the
// fresh stream once the resend is through, so the server's tail flush
// happens exactly once per connection and Recv still ends in io.EOF.
func (r *ResumableStream) CloseSend(ctx context.Context) error {
	r.mu.Lock()
	r.sendDone = true
	st, gen, err := r.st, r.gen, r.usableLocked()
	r.mu.Unlock()
	if err != nil {
		return err
	}
	if err := st.CloseSend(); err == nil {
		return nil
	}
	return r.recover(ctx, gen)
}

// Recv returns the next protected record. io.EOF after CloseSend once
// the tail has arrived. A dead stream triggers reconnect with backoff; a
// stream ended by a server drain reconnects the same way, riding out the
// restart.
func (r *ResumableStream) Recv(ctx context.Context) (trace.Record, error) {
	for {
		st, gen, err := r.current()
		if err != nil {
			return trace.Record{}, err
		}
		rec, err := st.Recv()
		if err == nil {
			if !r.admit(rec.User, gen) {
				continue // count-skip, or a record of a superseded stream
			}
			return rec, nil
		}
		if errors.Is(err, io.EOF) {
			r.mu.Lock()
			done := r.sendDone
			r.mu.Unlock()
			if done {
				return trace.Record{}, io.EOF
			}
		}
		if rerr := r.recover(ctx, gen); rerr != nil {
			return trace.Record{}, rerr
		}
	}
}

// Close abandons the stream without the CloseSend handshake.
func (r *ResumableStream) Close() error {
	r.mu.Lock()
	r.closed = true
	st := r.st
	r.st = nil
	r.mu.Unlock()
	if st != nil {
		return st.Close()
	}
	return nil
}

func (r *ResumableStream) usableLocked() error {
	if r.closed {
		return fmt.Errorf("client: resumable stream closed")
	}
	return r.dead
}

// buffer appends rec to the user's resend buffer before any wire write,
// so a mid-send failure is always covered by the reconnect's resend, and
// returns the stream and generation current at that moment.
func (r *ResumableStream) buffer(rec trace.Record) (*Stream, uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.usableLocked(); err != nil {
		return nil, 0, err
	}
	if _, ok := r.sent[rec.User]; !ok {
		r.order = append(r.order, rec.User)
	}
	r.sent[rec.User] = append(r.sent[rec.User], rec)
	return r.st, r.gen, nil
}

// admit counts one record received on generation gen for user, reporting
// false when the record must be dropped: a post-resync regeneration of
// output already delivered (the pending skip shrinks by one), or a record
// still buffered on a stream a resync has replaced, whose delivered count
// the resync already settled.
func (r *ResumableStream) admit(user string, gen uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if gen != r.gen {
		return false
	}
	if r.skip[user] > 0 {
		r.skip[user]--
		return false
	}
	r.delivered[user]++
	return true
}

// current returns the live stream and its generation, for failure
// attribution in recover.
func (r *ResumableStream) current() (*Stream, uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.usableLocked(); err != nil {
		return nil, 0, err
	}
	return r.st, r.gen, nil
}

// recover re-establishes the stream after a failure observed on
// generation gen, unless another operation already reconnected (gen
// moved). Either way the resync that made the current stream resent every
// record buffered before it and re-closed the sending half if CloseSend
// had begun, so Send and CloseSend are done; Recv reads on. Exhausting the
// backoff schedule poisons the stream.
func (r *ResumableStream) recover(ctx context.Context, gen uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.usableLocked(); err != nil {
		return err
	}
	if r.gen != gen {
		return nil
	}
	if r.st != nil {
		_ = r.st.Close() //lppm:allow droppederr -- the stream already failed; closing only releases the dead connection
		r.st = nil
	}
	var lastErr error
	for attempt := 0; attempt < r.bo.Retries; attempt++ {
		if serr := r.bo.Sleep(ctx, r.bo.delay(attempt)); serr != nil {
			r.dead = serr
			return serr
		}
		lastErr = r.resyncLocked(ctx)
		if lastErr == nil {
			return nil
		}
		var apiErr *APIError
		if errors.As(lastErr, &apiErr) && apiErr.Status == http.StatusGone {
			break // the journal can no longer regenerate our gap
		}
		if ctx.Err() != nil {
			lastErr = ctx.Err()
			break
		}
	}
	r.dead = fmt.Errorf("client: resume failed after %d attempts: %w", r.bo.Retries, lastErr)
	return r.dead
}

// resyncLocked runs one resume round: ask the journal where each user's
// stream resumes given what Recv has delivered, trim and cut the send
// buffers to match, dial a fresh stream, re-send each user's buffer from
// the resume point, and re-close the sending half if CloseSend already
// happened. Called with mu held; the HTTP round trips inside are bounded
// by the server answering or ctx.
func (r *ResumableStream) resyncLocked(ctx context.Context) error {
	resend := make(map[string][]trace.Record, len(r.sent))
	for _, u := range r.order {
		info, err := r.c.Resume(ctx, u, r.delivered[u])
		if err != nil {
			var apiErr *APIError
			if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
				// Journal-less server: full resend, count-based dedupe.
				resend[u] = r.sent[u]
				r.skip[u] = r.delivered[u]
				continue
			}
			return err
		}
		// Trim the buffer only below what a later resume can still ask
		// for: a crash can roll the server back to DurableIn, and this
		// resume resends from From. base tracks the absolute index of the
		// buffer head so repeated trims compose.
		if keep := min(info.DurableIn, info.From); keep > r.base[u] {
			cut := min(keep-r.base[u], uint64(len(r.sent[u])))
			r.sent[u] = r.sent[u][cut:]
			r.base[u] += cut
		}
		start := uint64(0)
		if info.From > r.base[u] {
			start = min(info.From-r.base[u], uint64(len(r.sent[u])))
		}
		resend[u] = r.sent[u][start:]
		// Assign rather than accumulate: a skip pending from a previous
		// resync counted duplicates on a stream that no longer exists.
		r.skip[u] = info.Skip
	}
	st, err := r.c.Stream(ctx)
	if err != nil {
		return err
	}
	for _, u := range r.order {
		for _, rec := range resend[u] {
			if err := st.Send(rec); err != nil {
				_ = st.Close() //lppm:allow droppederr -- the dial is being abandoned; err (returned) is the primary failure
				return err
			}
		}
	}
	if r.sendDone {
		if err := st.CloseSend(); err != nil {
			_ = st.Close() //lppm:allow droppederr -- the dial is being abandoned; err (returned) is the primary failure
			return err
		}
	}
	r.st = st
	r.gen++
	return nil
}
