package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/lppm"
	"repro/internal/obs"
)

func baseLoadOpts() loadOpts {
	return loadOpts{
		selfServe:  true,
		mechName:   "geoi",
		params:     lppm.Params{},
		flushEvery: 8,
		users:      4,
		points:     24,
		conns:      2,
		seed:       7,
	}
}

// TestRunSelfServeLoopback drives a small fleet through an in-process
// server and checks the report accounts for every record.
func TestRunSelfServeLoopback(t *testing.T) {
	o := baseLoadOpts()
	r, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.records != o.users*o.points {
		t.Errorf("report counts %d records, want %d", r.records, o.users*o.points)
	}
	if r.pointsPerSec <= 0 {
		t.Errorf("points/sec = %v, want > 0", r.pointsPerSec)
	}
	if r.p50Millis < 0 || r.p99Millis < r.p50Millis {
		t.Errorf("latency percentiles implausible: p50=%v p99=%v", r.p50Millis, r.p99Millis)
	}
}

// sortPercentileNS is the exact order-statistic computation the histogram
// replaced: sort every sample and index rank ⌈q·n⌉. Kept here as the
// reference the bounded-memory estimate is checked against.
func sortPercentileNS(lat []time.Duration, q float64) int64 {
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return int64(sorted[idx])
}

// TestQuantileAgreesWithSortedPercentiles pins the rework's accuracy
// contract: for random latency populations the histogram's p50/p99 must sit
// within one bucket width of the exact sorted percentile — the resolution
// obs.BucketWidthAt quotes for the bucket covering the true value.
func TestQuantileAgreesWithSortedPercentiles(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		h := new(obs.Histogram)
		n := 200 + rng.Intn(1800)
		lat := make([]time.Duration, n)
		for i := range lat {
			// 1µs .. ~80ms, the realistic loopback-latency range.
			lat[i] = time.Microsecond + time.Duration(rng.Int63n(int64(80*time.Millisecond)))
			h.Observe(int64(lat[i]))
		}
		for _, q := range []float64{0.50, 0.99} {
			exact := sortPercentileNS(lat, q)
			got := h.Quantile(q)
			width := obs.BucketWidthAt(exact)
			if diff := got - exact; diff > width || diff < -width {
				t.Errorf("trial %d q=%.2f: histogram %dns vs sorted %dns, |diff| %d > bucket width %d",
					trial, q, got, exact, diff, width)
			}
		}
	}
}

// TestQuantileMillisEmpty keeps the no-data convention of the old
// sort-based helper: zero, not NaN.
func TestQuantileMillisEmpty(t *testing.T) {
	if got := quantileMillis(new(obs.Histogram), 0.99); got != 0 {
		t.Errorf("empty histogram p99 = %v, want 0", got)
	}
}

// TestLoadOptsValidate fails fast on nonsense flags with one-line errors.
func TestLoadOptsValidate(t *testing.T) {
	cases := []func(*loadOpts){
		func(o *loadOpts) { o.selfServe = false },        // no addr either
		func(o *loadOpts) { o.addr = "http://x"; _ = o }, // addr + self-serve
		func(o *loadOpts) { o.users = 0 },
		func(o *loadOpts) { o.points = -1 },
		func(o *loadOpts) { o.conns = 0 },
		func(o *loadOpts) { o.rate = -1 },
		func(o *loadOpts) { o.flushEvery = 0 },
		func(o *loadOpts) { o.selfServe = false; o.addr = "http://x"; o.traceOut = "trace.chrome" },
	}
	for i, mutate := range cases {
		o := baseLoadOpts()
		mutate(&o)
		if err := o.validate(); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, o)
		}
	}
	o := baseLoadOpts()
	o.conns = 99 // more conns than users collapses to users
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	if o.conns != o.users {
		t.Errorf("conns = %d after validate, want %d", o.conns, o.users)
	}
}
