// Package client is the typed Go client for the protection server
// (internal/server): a duplex record stream over POST /v1/stream, unary
// batch protection, and the control-plane endpoints. It speaks the same
// trace-package JSONL codec as the server and the file path, so a client
// round trip adds no serialization of its own.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/server"
	"repro/internal/service"
	"repro/internal/trace"
)

// APIError is a non-2xx answer from the server, carrying its JSON error
// body when one was sent.
type APIError struct {
	Status int
	Msg    string
}

func (e *APIError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("server answered %d", e.Status)
	}
	return fmt.Sprintf("server answered %d: %s", e.Status, e.Msg)
}

// Client talks to one protection server. Safe for concurrent use; each
// Stream is its own connection.
type Client struct {
	base   string
	hc     *http.Client
	tenant string
	met    map[string]*opMetrics
	sent   *obs.Counter
	recv   *obs.Counter
}

// Option customizes a Client.
type Option func(*Client)

// WithTenant sets the X-Tenant header on every request — the identity the
// server's token buckets meter.
func WithTenant(tenant string) Option { return func(c *Client) { c.tenant = tenant } }

// WithObs registers client-side metrics on reg: per-operation request and
// error counts, request latency as the same power-of-two histogram type the
// server's stage clock uses (so client reports and server self-reports
// quote comparable quantiles), and stream record counters.
func WithObs(reg *obs.Registry) Option {
	return func(c *Client) {
		if reg == nil || reg.Disabled() {
			return
		}
		c.met = make(map[string]*opMetrics)
		for _, op := range []string{"health", "stats", "deployment", "reconfigure", "protect", "stream", "resume"} {
			l := obs.Labels{"op": op}
			c.met[op] = &opMetrics{
				reqs: reg.Counter("lppm_client_requests_total", "client requests issued", l),
				errs: reg.Counter("lppm_client_errors_total", "client requests that failed", l),
				lat:  reg.Histogram("lppm_client_request_ns", "client-observed request latency in nanoseconds", l),
			}
		}
		c.sent = reg.Counter("lppm_client_stream_sent_total", "records pushed into streams", nil)
		c.recv = reg.Counter("lppm_client_stream_received_total", "protected records received from streams", nil)
	}
}

// opMetrics is one operation's pre-registered client instruments.
type opMetrics struct {
	reqs, errs *obs.Counter
	lat        *obs.Histogram
}

// track starts one operation's measurement; call the result with the
// operation's outcome. A client without WithObs records nothing.
func (c *Client) track(op string) func(error) {
	m := c.met[op]
	if m == nil {
		return func(error) {}
	}
	start := obs.Stamp()
	return func(err error) {
		m.reqs.Inc()
		if err != nil {
			m.errs.Inc()
		}
		m.lat.Observe(obs.Stamp() - start)
	}
}

// New returns a client for the server at base (e.g. "http://127.0.0.1:8080").
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
	for _, o := range opts {
		o(c)
	}
	return c
}

// BaseURL returns the server address the client talks to.
func (c *Client) BaseURL() string { return c.base }

// apiError reads a failed response's JSON body into an APIError.
func apiError(resp *http.Response) error {
	defer resp.Body.Close()
	var body struct {
		Error string `json:"error"`
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16)) //lppm:allow droppederr -- the response is already a failure; a truncated body only degrades the message, and the status code survives regardless
	if json.Unmarshal(raw, &body) != nil || body.Error == "" {
		body.Error = strings.TrimSpace(string(raw))
	}
	return &APIError{Status: resp.StatusCode, Msg: body.Error}
}

func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if c.tenant != "" {
		req.Header.Set("X-Tenant", c.tenant)
	}
	// W3C trace propagation: a caller that put a span or a bare span
	// context in ctx (tracing.ContextWithSpanContext) gets it injected
	// as a traceparent header, so the server's spans for this request —
	// and, on a stream, every window of its users — join the caller's
	// trace.
	if sc := tracing.FromContext(ctx); sc.Valid() {
		req.Header.Set(tracing.Header, sc.Traceparent())
	}
	return req, nil
}

// getJSON performs a GET and decodes the JSON answer.
func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	req, err := c.newRequest(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// postJSON performs a POST with a JSON body and decodes the JSON answer.
func (c *Client) postJSON(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := c.newRequest(ctx, http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// Health checks GET /healthz, returning nil while the server serves and an
// *APIError once it drains.
func (c *Client) Health(ctx context.Context) error {
	done := c.track("health")
	var h struct {
		Status string `json:"status"`
	}
	err := c.getJSON(ctx, "/healthz", &h)
	done(err)
	return err
}

// Stats fetches GET /v1/stats.
func (c *Client) Stats(ctx context.Context) (server.StatsResponse, error) {
	done := c.track("stats")
	var st server.StatsResponse
	err := c.getJSON(ctx, "/v1/stats", &st)
	done(err)
	return st, err
}

// Deployment fetches GET /v1/deployment: the serving generation and
// parameter assignment, in the gateway's own wire type.
func (c *Client) Deployment(ctx context.Context) (service.DeploymentInfo, error) {
	done := c.track("deployment")
	var d service.DeploymentInfo
	err := c.getJSON(ctx, "/v1/deployment", &d)
	done(err)
	return d, err
}

// Reconfigure triggers POST /v1/reconfigure: a manual hot-swap to the
// given parameter values (merged over mechanism defaults), with optional
// per-user overrides. Returns the new serving generation.
func (c *Client) Reconfigure(ctx context.Context, params map[string]float64, overrides map[string]map[string]float64) (gen uint64, err error) {
	done := c.track("reconfigure")
	defer func() { done(err) }()
	var out struct {
		Generation uint64 `json:"generation"`
	}
	err = c.postJSON(ctx, "/v1/reconfigure", struct {
		Params    map[string]float64            `json:"params"`
		Overrides map[string]map[string]float64 `json:"overrides,omitempty"`
	}{params, overrides}, &out)
	return out.Generation, err
}

// Protect runs a unary batch through POST /v1/protect and returns the
// protected records (grouped per user, each user's records in time order —
// the dataset iteration order of the batch path).
func (c *Client) Protect(ctx context.Context, recs []trace.Record) (protected []trace.Record, err error) {
	done := c.track("protect")
	defer func() { done(err) }()
	var buf bytes.Buffer
	rw, err := trace.NewRecordWriter(&buf, trace.FormatJSONL)
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if err := rw.Write(rec); err != nil {
			return nil, err
		}
	}
	if err := rw.Flush(); err != nil {
		return nil, err
	}
	req, err := c.newRequest(ctx, http.MethodPost, "/v1/protect", &buf)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	defer resp.Body.Close()
	var out []trace.Record
	if err := trace.ScanRecords(resp.Body, trace.FormatJSONL, func(rec trace.Record) error {
		out = append(out, rec)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Stream is one duplex record stream: Send pushes records to the gateway,
// Recv pulls protected records as their windows flush. Send and Recv may
// run on different goroutines (and must, for flows larger than the
// transport buffers — the server applies backpressure). Finish with
// CloseSend then drain Recv until io.EOF.
type Stream struct {
	pw   *io.PipeWriter
	rw   *trace.RecordWriter
	resp *http.Response

	recs    chan trace.Record
	readErr error         // set before recs closes
	ended   chan struct{} // closed once the response has ended

	sent *obs.Counter // nil without WithObs
	recv *obs.Counter
}

// Stream opens POST /v1/stream. It returns once the server has admitted
// the stream (headers received); admission refusals (429, 503) surface as
// *APIError.
func (c *Client) Stream(ctx context.Context) (st *Stream, err error) {
	done := c.track("stream") // measures the admission handshake
	defer func() { done(err) }()
	pr, pw := io.Pipe()
	req, err := c.newRequest(ctx, http.MethodPost, "/v1/stream", pr)
	if err != nil {
		pw.Close()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.hc.Do(req)
	if err != nil {
		pw.Close()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		pw.Close()
		return nil, apiError(resp)
	}
	rw, err := trace.NewRecordWriter(pw, trace.FormatJSONL)
	if err != nil {
		pw.Close()
		resp.Body.Close() //lppm:allow droppederr -- best-effort abort of a stream that never started; err already carries the cause
		return nil, err
	}
	st = &Stream{pw: pw, rw: rw, resp: resp, recs: make(chan trace.Record, 64), ended: make(chan struct{}), sent: c.sent, recv: c.recv}
	go st.decodeLoop() //lppm:allow goroleak -- sends on st.recs until EOF; the Stream contract (Recv-until-nil or Close, whose drainer empties recs) guarantees a receiver
	return st, nil
}

// errStreamEnded fails Send and CloseSend once the server has ended the
// response: nothing reads the request body any more.
var errStreamEnded = errors.New("client: the server ended the stream")

// decodeLoop scans the response into the Recv channel, then records the
// terminal state: a scan error, or the server's X-Stream-Error trailer
// (readable only after the body hits EOF). It then fails the request body,
// so the transport's body writer, parked on the pipe until the caller's
// CloseSend or Close, exits with the response.
func (st *Stream) decodeLoop() {
	err := trace.ScanRecords(st.resp.Body, trace.FormatJSONL, func(rec trace.Record) error {
		if st.recv != nil {
			st.recv.Inc()
		}
		st.recs <- rec
		return nil
	})
	if err == nil {
		if msg := st.resp.Trailer.Get("X-Stream-Error"); msg != "" {
			err = fmt.Errorf("server: stream ended: %s", msg)
		}
	}
	st.readErr = err
	st.pw.CloseWithError(errStreamEnded) // keeps the first error if CloseSend or Close came first
	close(st.ended)
	close(st.recs)
}

// Send pushes one record into the stream. It blocks while the server
// exerts backpressure. Interleave with Recv (or run Recv on its own
// goroutine): the response windows must keep draining for sends to make
// progress on a saturated gateway.
func (st *Stream) Send(rec trace.Record) error {
	if err := st.rw.Write(rec); err != nil {
		return err
	}
	if st.sent != nil {
		st.sent.Inc()
	}
	// Flush per record: the pipe has no liveness of its own, and a
	// buffered tail would stall a quiet stream's windows indefinitely.
	return st.rw.Flush()
}

// CloseSend ends the request body: the server flushes this connection's
// pending windows and closes the response after delivering them. Recv
// drains the remainder and then reports io.EOF. Once the server has ended
// the response on its own (a drain, say), it returns an error, as Send does.
func (st *Stream) CloseSend() error {
	if err := st.rw.Flush(); err != nil {
		return err
	}
	select {
	case <-st.ended:
		return errStreamEnded
	default:
	}
	return st.pw.Close()
}

// Recv returns the next protected record, or io.EOF once the server has
// delivered everything after CloseSend. A server-side stream error (from
// the response trailer) is returned in place of io.EOF.
func (st *Stream) Recv() (trace.Record, error) {
	rec, ok := <-st.recs
	if !ok {
		if st.readErr != nil {
			return trace.Record{}, st.readErr
		}
		return trace.Record{}, io.EOF
	}
	return rec, nil
}

// Close aborts the stream immediately, without the CloseSend handshake.
// Safe after CloseSend; then it only releases the response.
func (st *Stream) Close() error {
	st.pw.CloseWithError(context.Canceled)
	// Unblock decodeLoop if it is mid-send, then release the connection.
	go func() {
		for range st.recs {
		}
	}()
	return st.resp.Body.Close()
}

// WaitHealthy polls /healthz until it answers ok or the context expires —
// a convenience for tests and the load generator racing a freshly spawned
// server.
func (c *Client) WaitHealthy(ctx context.Context) error {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if err := c.Health(ctx); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}
