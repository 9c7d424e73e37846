package lppm

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/trace"
)

func streamRecords(n int) []trace.Record {
	t0 := time.Date(2008, 5, 17, 12, 0, 0, 0, time.UTC)
	base := geo.Point{Lat: 37.7749, Lng: -122.4194}
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{
			User:  "u1",
			Time:  t0.Add(time.Duration(i) * time.Minute),
			Point: base.Offset(float64(i)*75, float64(i%5)*20),
		}
	}
	return recs
}

func TestUserStreamValidation(t *testing.T) {
	m := NewGeoIndistinguishability()
	if _, err := NewUserStream(m, Defaults(m), "", rng.New(1)); err == nil {
		t.Error("empty user must fail")
	}
	if _, err := NewUserStream(m, Defaults(m), "u1", nil); err == nil {
		t.Error("nil rng must fail")
	}
	if _, err := NewUserStream(m, Params{"epsilon": -1}, "u1", rng.New(1)); err == nil {
		t.Error("invalid params must fail")
	}
	s, err := NewUserStream(m, Defaults(m), "u1", rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Push(trace.Record{User: "u2"}); err == nil {
		t.Error("wrong-user record must be rejected")
	}
	if recs, err := s.Flush(); err != nil || recs != nil {
		t.Errorf("empty flush = (%v, %v), want (nil, nil)", recs, err)
	}
}

// TestUserStreamMatchesBatch verifies the window-invariance contract: for a
// per-record-randomness mechanism (GEO-I), streaming through any window
// split is bit-identical to one batch Protect with the same source.
func TestUserStreamMatchesBatch(t *testing.T) {
	m := NewGeoIndistinguishability()
	p := Defaults(m)
	recs := streamRecords(50)
	tr, err := trace.NewTrace("u1", recs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Protect(tr, p, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{1, 7, 50} {
		s, err := NewUserStream(m, p, "u1", rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		var got []trace.Record
		for i, rec := range recs {
			if err := s.Push(rec); err != nil {
				t.Fatal(err)
			}
			if s.Pending() >= window || i == len(recs)-1 {
				out, err := s.Flush()
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, out...)
			}
		}
		if len(got) != len(want.Records) {
			t.Fatalf("window %d: %d records, want %d", window, len(got), len(want.Records))
		}
		for i := range got {
			if got[i] != want.Records[i] {
				t.Fatalf("window %d record %d: got %v, want %v", window, i, got[i], want.Records[i])
			}
		}
	}
}

// flakyMechanism wraps a real mechanism and fails the first `failures`
// Protect calls — after consuming a few draws, like a mechanism dying
// mid-trace would. It exercises the deterministic-failure contract of
// UserStream.Flush.
type flakyMechanism struct {
	inner    Mechanism
	failures int
}

func (f *flakyMechanism) Name() string        { return f.inner.Name() }
func (f *flakyMechanism) Params() []ParamSpec { return f.inner.Params() }

func (f *flakyMechanism) Protect(t *trace.Trace, p Params, r *rng.Source) (*trace.Trace, error) {
	if f.failures > 0 {
		f.failures--
		// Consume draws for roughly half the records, then die.
		for i := 0; i < t.Len()/2+1; i++ {
			r.Float64()
			r.Float64()
		}
		return nil, errors.New("flaky: transient mid-trace failure")
	}
	return f.inner.Protect(t, p, r)
}

// TestUserStreamFlushFailureIsDeterministic is the regression test for the
// retry hazard: a mechanism error used to leave the stream's source advanced
// by however many draws the failed Protect consumed, so a retry silently
// diverged from the batch output. Flush now rewinds the source, so a
// failed-then-retried stream must stay bit-identical to a never-failed one.
func TestUserStreamFlushFailureIsDeterministic(t *testing.T) {
	geoi := NewGeoIndistinguishability()
	p := Defaults(geoi)
	recs := streamRecords(40)
	tr, err := trace.NewTrace("u1", recs)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 321
	want, err := geoi.Protect(tr, p, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}

	flaky := &flakyMechanism{inner: geoi, failures: 2}
	s, err := NewUserStream(flaky, p, "u1", rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	var got []trace.Record
	fails := 0
	for i, rec := range recs {
		if err := s.Push(rec); err != nil {
			t.Fatal(err)
		}
		if s.Pending() >= 8 || i == len(recs)-1 {
			out, err := s.Flush()
			for err != nil {
				fails++
				if fails > 5 {
					t.Fatal("flaky mechanism failing more than injected")
				}
				if s.Pending() == 0 {
					t.Fatal("failed Flush must retain the buffer")
				}
				out, err = s.Flush() // retry: must replay identical draws
			}
			got = append(got, out...)
		}
	}
	if fails != 2 {
		t.Fatalf("saw %d injected failures, want 2", fails)
	}
	if len(got) != len(want.Records) {
		t.Fatalf("got %d records, want %d", len(got), len(want.Records))
	}
	for i := range got {
		if got[i] != want.Records[i] {
			t.Fatalf("record %d diverged after failed+retried flush: got %v, want %v",
				i, got[i], want.Records[i])
		}
	}
}

func TestUserStreamReconfigure(t *testing.T) {
	m := NewGeoIndistinguishability()
	s, err := NewUserStream(m, Defaults(m), "u1", rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	recs := streamRecords(4)
	for _, r := range recs {
		if err := s.Push(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Reconfigure(nil, Params{"epsilon": -4}); err == nil {
		t.Error("invalid params must be rejected")
	}
	if err := s.Reconfigure(nil, Params{"epsilon": 0.01, "epsilonn": 0.001}); err == nil {
		t.Error("undeclared param name must be rejected, not silently ignored")
	}
	if s.Pending() != 4 {
		t.Errorf("pending = %d after rejected Reconfigure, want 4", s.Pending())
	}
	newP := Defaults(m)
	newP["epsilon"] = newP["epsilon"] / 2
	if err := s.Reconfigure(nil, newP); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 4 {
		t.Errorf("pending = %d after Reconfigure, want 4 (no record loss)", s.Pending())
	}
	out, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("flushed %d records, want 4", len(out))
	}
	// The window flushed after the swap must match a stream configured with
	// the new parameters from the start (same source position): exactly one
	// parameter set per window.
	s2, err := NewUserStream(m, newP, "u1", rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := s2.Push(r); err != nil {
			t.Fatal(err)
		}
	}
	out2, err := s2.Flush()
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != out2[i] {
			t.Fatalf("record %d: swapped stream %v != fresh stream %v", i, out[i], out2[i])
		}
	}
	// Swapping the mechanism keeps the buffer too.
	if err := s.Push(recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Reconfigure(Identity{}, Params{}); err != nil {
		t.Fatal(err)
	}
	out, err = s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != recs[0] {
		t.Fatalf("identity after mechanism swap: got %v, want %v", out, recs[0])
	}
}

func TestUserStreamDiscard(t *testing.T) {
	m := Identity{}
	s, err := NewUserStream(m, Defaults(m), "u1", rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range streamRecords(3) {
		if err := s.Push(r); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Discard(); n != 3 {
		t.Errorf("Discard = %d, want 3", n)
	}
	if s.Pending() != 0 {
		t.Errorf("pending = %d after Discard, want 0", s.Pending())
	}
	if n := s.Discard(); n != 0 {
		t.Errorf("second Discard = %d, want 0", n)
	}
}

func TestUserStreamPendingAndClear(t *testing.T) {
	m := Identity{}
	s, err := NewUserStream(m, Defaults(m), "u1", rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	recs := streamRecords(5)
	for _, r := range recs {
		if err := s.Push(r); err != nil {
			t.Fatal(err)
		}
	}
	if s.Pending() != 5 {
		t.Errorf("pending = %d, want 5", s.Pending())
	}
	out, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 || s.Pending() != 0 {
		t.Errorf("flush returned %d records, pending now %d; want 5 and 0", len(out), s.Pending())
	}
	for i := range out {
		if out[i] != recs[i] {
			t.Errorf("identity stream changed record %d: %v != %v", i, out[i], recs[i])
		}
	}
}

// TestRestoreUserStreamFarPosition restores a stream 2³² draws in, which
// replaying a generator from its seed could not do in reasonable time, and
// checks that it takes under a millisecond and draws what a source seeked
// there directly draws.
func TestRestoreUserStreamFarPosition(t *testing.T) {
	const pos = 1 << 32
	g := NewGeoIndistinguishability()
	p := Params{EpsilonParam: 0.01}
	recs := streamRecords(4)
	best := time.Duration(math.MaxInt64)
	var s *UserStream
	for attempt := 0; attempt < 5; attempt++ {
		start := time.Now()
		var err error
		s, err = RestoreUserStream(g, p, "u1", rng.New(9), pos, recs[:2])
		if d := time.Since(start); d < best {
			best = d
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if best >= time.Millisecond {
		t.Errorf("restore at position 2³² took %v, want < 1ms", best)
	}
	if s.Pos() != pos {
		t.Fatalf("restored Pos = %d, want %d", s.Pos(), pos)
	}
	got, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	ref := rng.New(9)
	ref.SeekTo(pos)
	tr, err := trace.NewTrace("u1", recs[:2])
	if err != nil {
		t.Fatal(err)
	}
	want, err := g.Protect(tr, p, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Records) {
		t.Fatalf("flushed %d records, want %d", len(got), len(want.Records))
	}
	for i := range got {
		if got[i] != want.Records[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want.Records[i])
		}
	}
}
