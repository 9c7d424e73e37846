package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/trace"
)

// ResumeInfo is GET /v1/resume's answer: the journal's progress counters
// for one user. In is the record count the live server has absorbed — a
// reconnecting client must not re-send below it, or the mechanism would
// draw fresh randomness for records it already protected. DurableIn is
// the count on stable storage: the buffer must not be trimmed below it,
// because a crash can roll the server back that far. The two split only
// while a checkpoint waits for the fsync that covers it; after a
// crash-restart the fold equalizes them.
type ResumeInfo struct {
	User       string `json:"user"`
	Known      bool   `json:"known"`
	Generation uint64 `json:"generation"`
	In         uint64 `json:"in"`
	DurableIn  uint64 `json:"durable_in"`
	Out        uint64 `json:"out"`
	Windows    uint64 `json:"windows"`
}

// Resume fetches GET /v1/resume for one user. A server running without a
// journal answers 404 (surfaced as *APIError): resume-by-counter is
// exactly the capability the journal adds.
func (c *Client) Resume(ctx context.Context, user string) (ResumeInfo, error) {
	done := c.track("resume")
	var info ResumeInfo
	err := c.getJSON(ctx, "/v1/resume?user="+url.QueryEscape(user), &info)
	done(err)
	return info, err
}

// Replay fetches GET /v1/replay: the protected records for user with
// absolute output index >= from, from the server's retained-window ring —
// the delivery gap after a disconnect. 410 (as *APIError) means the ring
// no longer reaches back to from.
func (c *Client) Replay(ctx context.Context, user string, from uint64) (recs []trace.Record, err error) {
	done := c.track("replay")
	defer func() { done(err) }()
	path := fmt.Sprintf("/v1/replay?user=%s&from=%d", url.QueryEscape(user), from)
	req, err := c.newRequest(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	defer resp.Body.Close()
	if err := trace.ScanRecords(resp.Body, trace.FormatJSONL, func(rec trace.Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		return nil, err
	}
	return recs, nil
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
// resynchronizes against the server's stream journal:
//
//   - /v1/resume reports, per user, how many records the live server has
//     absorbed (in_u) and how many are on stable storage (durable_in_u).
//     The send buffer is trimmed to durable_in_u — a crash can roll the
//     server back that far — and re-sent only from in_u, because
//     re-sending a record the live server already absorbed would draw
//     fresh randomness for it. Records the journal lost to a crash
//     (delivered but above the durable counters) are re-protected
//     deterministically from the checkpointed rng position, so the
//     regenerated duplicates are bit-identical and skipped by exact count.
//   - /v1/replay returns the protected records that were emitted (and
//     journaled) but never delivered; they surface through Recv ahead of
//     live windows, so the application sees every protected record exactly
//     once, byte-identical to an uninterrupted run.
//
// Against a journal-less server (404 on /v1/resume) the helper degrades to
// a count-dedupe fallback: it re-sends everything and drops the first
// delivered_u re-protected records. That keeps counts right after a clean
// server restart but cannot be bit-identical — bit-identity is precisely
// what the journal adds.
//
// One goroutine may call Send/CloseSend while another calls Recv; either
// side may observe a failure first, and reconnection is serialized
// internally. Send buffers grow with the journal's checkpoint lag (at most
// one unflushed window per user once trimmed), not with stream length.
type ResumableStream struct {
	c  *Client
	bo BackoffConfig

	mu        sync.Mutex
	st        *Stream
	gen       uint64 // bumped on every successful reconnect
	sent      map[string][]trace.Record
	base      map[string]uint64 // absolute index of sent[u][0]
	delivered map[string]uint64
	skip      map[string]uint64 // count-dedupe fallback (journal-less)
	order     []string          // users in first-send order
	replayed  []trace.Record    // journal replay awaiting Recv
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

// Recv returns the next protected record: journal-replayed gap records
// first, then live windows. io.EOF after CloseSend once the tail has
// arrived. A dead stream triggers reconnect with backoff; a stream ended
// by a server drain reconnects the same way, riding out the restart.
func (r *ResumableStream) Recv(ctx context.Context) (trace.Record, error) {
	for {
		if rec, ok := r.popReplayed(); ok {
			return rec, nil
		}
		st, gen, err := r.current()
		if err != nil {
			return trace.Record{}, err
		}
		rec, err := st.Recv()
		if err == nil {
			if !r.admit(rec.User) {
				continue // count-skip: a re-protection of an already delivered record
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

// popReplayed takes the next journal-replayed gap record, if any —
// those are delivered ahead of live windows to preserve per-user order.
func (r *ResumableStream) popReplayed() (trace.Record, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.replayed) == 0 {
		return trace.Record{}, false
	}
	rec := r.replayed[0]
	r.replayed = r.replayed[1:]
	return rec, true
}

// admit counts one live record for user, reporting false when the
// record is a post-resync re-protection of output already delivered —
// the caller drops it and the pending skip shrinks by one.
func (r *ResumableStream) admit(user string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
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
			break // the replay ring no longer covers our gap: unrecoverable
		}
		if ctx.Err() != nil {
			lastErr = ctx.Err()
			break
		}
	}
	r.dead = fmt.Errorf("client: resume failed after %d attempts: %w", r.bo.Retries, lastErr)
	return r.dead
}

// resyncLocked runs one resume round: query the journal's durable
// per-user counters, fetch the undelivered replay gap, dial a fresh
// stream, re-send the unabsorbed tail of each user's buffer, and re-close
// the sending half if CloseSend already happened. Called with mu held;
// the HTTP round trips inside are bounded by the server answering or ctx.
func (r *ResumableStream) resyncLocked(ctx context.Context) error {
	resend := make(map[string][]trace.Record, len(r.sent))
	for _, u := range r.order {
		info, err := r.c.Resume(ctx, u)
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
		// Trim the buffer only below the durable count: everything above
		// DurableIn could be rolled back by a crash and must stay
		// resendable. base tracks the absolute index of the buffer head so
		// repeated trims compose.
		if info.DurableIn > r.base[u] {
			cut := info.DurableIn - r.base[u]
			if cut > uint64(len(r.sent[u])) {
				cut = uint64(len(r.sent[u]))
			}
			r.sent[u] = r.sent[u][cut:]
			r.base[u] += cut
		}
		// Re-send only from the live absorbed count: a server that kept
		// running (plain disconnect) already protected [DurableIn, In) and
		// must not see those records twice. After a crash In == DurableIn,
		// so the whole retained buffer goes back out.
		start := uint64(0)
		if info.In > r.base[u] {
			start = info.In - r.base[u]
			if start > uint64(len(r.sent[u])) {
				start = uint64(len(r.sent[u]))
			}
		}
		resend[u] = r.sent[u][start:]
		if info.Known && r.delivered[u] < info.Out {
			gap, err := r.c.Replay(ctx, u, r.delivered[u])
			if err != nil {
				return err
			}
			r.replayed = append(r.replayed, gap...)
			r.delivered[u] += uint64(len(gap))
		}
		// A write-behind journal can lose its unsynced
		// tail in a crash, so the restarted server regenerates windows we
		// already delivered. Re-protection from the checkpointed rng
		// position is deterministic, so the regenerated records are
		// bit-identical and skipping them by count is exact — unlike the
		// journal-less fallback above, where the skipped output is merely
		// positionally equivalent. Assign rather than accumulate: a skip
		// pending from a previous resync counted duplicates on a stream
		// that no longer exists.
		if r.delivered[u] > info.Out {
			r.skip[u] = r.delivered[u] - info.Out
		} else {
			r.skip[u] = 0
		}
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
