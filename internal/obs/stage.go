package obs

import "time"

// Stage names one hop of the serving pipeline. A record batch is stamped
// as it crosses each boundary; the per-stage histograms attribute the
// end-to-end latency a client observes to the hop that spent it — the
// evidence that says whether the next optimization belongs in the codec,
// the shard queue, the mechanism, or the socket.
type Stage int

const (
	// StageIngest is staging residency: first record staged → batch
	// handed to the shard queue when it reaches StageSize, or taken by
	// the shard worker as soon as its queue is empty.
	StageIngest Stage = iota
	// StageQueue is shard-queue residency: batch enqueued → dequeued by
	// the shard worker (grows under backpressure).
	StageQueue
	// StageFlush is window protection: flush begins → protected window
	// accepted by the gateway output (includes mechanism time and any
	// output-channel backpressure).
	StageFlush
	// StageDispatch is delivery routing: window received by the server's
	// dispatcher → picked up by its connection's writer (includes
	// window-queue residency on a slow-reading connection).
	StageDispatch
	// StageWrite is the wire: connection writer starts encoding → window
	// flushed to the socket.
	StageWrite

	numStages
)

// stageNames are the label values, index-aligned with the constants.
var stageNames = [numStages]string{"ingest", "queue", "flush", "dispatch", "write"}

// String returns the stage's label value.
func (s Stage) String() string {
	if s < 0 || s >= numStages {
		return "unknown"
	}
	return stageNames[s]
}

// epoch anchors Stamp. Stamps are durations since process start read off
// Go's monotonic clock — immune to wall-clock steps, and never serialized,
// so the arbitrary zero is invisible.
var epoch = time.Now()

// Stamp returns the current monotonic timestamp in nanoseconds. One call
// is roughly a clock_gettime via the vDSO (~20 ns); serving code stamps
// per batch or per window, never per record, so the cost amortizes to
// well under a nanosecond per record.
func Stamp() int64 { return int64(time.Since(epoch)) }

// Epoch returns the wall-clock instant Stamp counts from, so exports
// that leave the process (trace dumps, flight snapshots) can anchor
// the monotonic timebase to calendar time.
func Epoch() time.Time { return epoch }

// StageClock is the per-stage latency histogram bundle. Constructing one
// on a registry is idempotent — the histograms are get-or-create — so the
// gateway and the HTTP server each build their own clock over the shared
// registry and land in the same series. A nil *StageClock is the disabled
// form: Observe on it is a no-op, which lets serving code keep a single
// unconditional call site.
type StageClock struct {
	stages [numStages]*Histogram
}

// StageLatencyMetric is the series name carrying the per-stage histograms.
const StageLatencyMetric = "lppm_stage_latency_ns"

// NewStageClock registers (or re-acquires) the stage histograms on r and
// returns the clock, or nil when r is disabled — the caller stores the
// result and calls Observe unconditionally.
func NewStageClock(r *Registry) *StageClock {
	if r == nil || r.Disabled() {
		return nil
	}
	c := &StageClock{}
	for st := Stage(0); st < numStages; st++ {
		c.stages[st] = r.Histogram(StageLatencyMetric,
			"per-stage serving latency in nanoseconds, power-of-two buckets",
			Labels{"stage": st.String()})
	}
	return c
}

// Observe records that the batch crossed stage st between the two stamps.
// No-op on a nil clock or a zero start stamp (a batch staged before
// instrumentation was attached).
func (c *StageClock) Observe(st Stage, startNS, nowNS int64) {
	if c == nil || startNS == 0 {
		return
	}
	c.stages[st].Observe(nowNS - startNS)
}

// Hist exposes one stage's histogram (the load generator reuses the write
// stage's type for its client-side latencies; tests read quantiles).
func (c *StageClock) Hist(st Stage) *Histogram {
	if c == nil {
		return nil
	}
	return c.stages[st]
}
