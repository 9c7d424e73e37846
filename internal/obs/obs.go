// Package obs is the serving stack's observability subsystem: a metric
// registry of atomic counters, gauges and lock-free fixed-bucket latency
// histograms, Prometheus text-format and JSON exposition, a stage clock
// that attributes end-to-end latency to the pipeline stage that spent it,
// and an admin-plane HTTP mux (/metrics, /metrics.json, net/http/pprof).
//
// The package is stdlib-only and built for always-on use on the hot path:
// every update is a handful of atomic operations with zero allocations,
// and anything that needs a lock (registration, snapshotting) happens off
// the serving path. Instrumentation must never perturb protected output —
// obs reads the wall clock but feeds nothing back into the deterministic
// layers, so it lives strictly in the serving packages (service, server,
// cmd) and is never imported by a deterministic one (§3, §12 of DESIGN.md).
//
// Components that already keep their own atomic counters (the gateway's
// per-shard stats) register them as CounterFunc/GaugeFunc callbacks read
// at snapshot time, so exposing a counter costs the hot path nothing and
// the registry cannot drift from the source of truth.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is an instrument's constant label set, fixed at registration.
// (There is deliberately no dynamic-label API: a label born from request
// data is an unbounded cardinality leak; pre-register the series you mean
// to have.)
type Labels map[string]string

// Kind discriminates what an instrument measures.
type Kind int

const (
	// KindCounter is a monotonically non-decreasing count.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket latency/size distribution.
	KindHistogram
)

// String returns the Prometheus TYPE name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing atomic count.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic value that can rise and fall.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// instrument is one registered series: identity plus exactly one backing
// source (an owned instrument or a read-at-snapshot callback).
type instrument struct {
	name   string
	help   string
	labels Labels
	key    string // name + canonical label encoding
	kind   Kind

	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
	counterFunc func() uint64
	gaugeFunc   func() float64
}

// Registry holds the instruments of one serving stack (typically one per
// gateway — everything downstream registers into the gateway's). Safe for
// concurrent use. Registration is get-or-create on (name, labels): asking
// twice for the same series returns the same instrument, so independently
// constructed components can share counters without coordination. A
// *Func re-registration replaces the callback — the newest component owns
// the series. Registering the same series under a different kind panics:
// that is a programming error, caught at wiring time, not a runtime
// condition.
type Registry struct {
	nop bool

	mu    sync.Mutex
	order []*instrument
	byKey map[string]*instrument
}

// NewRegistry returns an empty, collecting registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*instrument)}
}

// Nop returns a registry that records nothing: instruments are handed out
// and usable, but never registered, and Gather returns nothing. Disabled
// reports true, which is the signal serving code uses to skip its clock
// reads. Nop exists for exactly one purpose — the interleaved on/off
// overhead benchmark needs an honest "off" — and for tests that want a
// gateway without metric bookkeeping.
func Nop() *Registry { return &Registry{nop: true} }

// Disabled reports whether this registry collects at all. Hot paths guard
// their wall-clock stamps with it; instrument updates need no guard (on a
// Nop registry they touch private atomics nobody reads).
func (r *Registry) Disabled() bool { return r.nop }

// labelKey canonicalizes a label set: keys sorted, k=v joined. Keys are
// collected and then visibly sorted, so the encoding is deterministic.
func labelKey(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	return b.String()
}

// cloneLabels copies a label set so later caller mutation cannot skew the
// registered identity.
func cloneLabels(labels Labels) Labels {
	if len(labels) == 0 {
		return nil
	}
	out := make(Labels, len(labels))
	for k, v := range labels {
		out[k] = v
	}
	return out
}

// register is the get-or-create core. make builds the instrument when the
// series is new; replace, when non-nil, updates an existing func-backed
// series in place (callback re-registration).
func (r *Registry) register(name, help string, labels Labels, kind Kind,
	make func(*instrument), replace func(*instrument)) *instrument {
	key := name + "{" + labelKey(labels) + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if ins, ok := r.byKey[key]; ok {
		if ins.kind != kind {
			panic(fmt.Sprintf("obs: %s re-registered as %s, was %s", key, kind, ins.kind))
		}
		if replace != nil {
			replace(ins)
		}
		return ins
	}
	ins := &instrument{name: name, help: help, labels: cloneLabels(labels), key: key, kind: kind}
	make(ins)
	if r.byKey != nil {
		r.byKey[key] = ins
		r.order = append(r.order, ins)
	}
	return ins
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	ins := r.register(name, help, labels, KindCounter,
		func(i *instrument) { i.counter = &Counter{} }, nil)
	return ins.counter
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	ins := r.register(name, help, labels, KindGauge,
		func(i *instrument) { i.gauge = &Gauge{} }, nil)
	return ins.gauge
}

// Histogram returns the named latency histogram, creating it on first use.
func (r *Registry) Histogram(name, help string, labels Labels) *Histogram {
	ins := r.register(name, help, labels, KindHistogram,
		func(i *instrument) { i.hist = &Histogram{} }, nil)
	return ins.hist
}

// CounterFunc registers a counter series whose value is read from fn at
// snapshot time — the zero-hot-path-cost way to expose a count a component
// already maintains. fn must be safe to call from any goroutine and should
// be monotone. Re-registering replaces the callback.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() uint64) {
	r.register(name, help, labels, KindCounter,
		func(i *instrument) { i.counterFunc = fn },
		func(i *instrument) {
			if i.counterFunc != nil {
				i.counterFunc = fn
			}
		})
}

// GaugeFunc registers a gauge series read from fn at snapshot time (queue
// depths, table sizes, generation numbers). Same contract as CounterFunc.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, labels, KindGauge,
		func(i *instrument) { i.gaugeFunc = fn },
		func(i *instrument) {
			if i.gaugeFunc != nil {
				i.gaugeFunc = fn
			}
		})
}

// Sample is one series' value at Gather time.
type Sample struct {
	// Name and Labels identify the series.
	Name   string
	Labels Labels
	// Help is the metric's registered description.
	Help string
	// Kind says how to read the rest: counters and gauges carry Value,
	// histograms carry Hist.
	Kind  Kind
	Value float64
	Hist  *HistogramSnapshot
}

// Gather snapshots every registered series, in registration order (which
// is deterministic for a deterministically wired stack). Callbacks run
// outside the registry lock, so a slow GaugeFunc cannot block concurrent
// registration, and callbacks may themselves take component locks without
// ordering against the registry's.
func (r *Registry) Gather() []Sample {
	r.mu.Lock()
	order := make([]*instrument, len(r.order))
	copy(order, r.order)
	r.mu.Unlock()
	out := make([]Sample, 0, len(order))
	for _, ins := range order {
		s := Sample{Name: ins.name, Labels: ins.labels, Help: ins.help, Kind: ins.kind}
		switch {
		case ins.counter != nil:
			s.Value = float64(ins.counter.Value())
		case ins.counterFunc != nil:
			s.Value = float64(ins.counterFunc())
		case ins.gauge != nil:
			s.Value = float64(ins.gauge.Value())
		case ins.gaugeFunc != nil:
			s.Value = ins.gaugeFunc()
		case ins.hist != nil:
			s.Hist = ins.hist.Snapshot()
		}
		out = append(out, s)
	}
	return out
}
