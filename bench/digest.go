package main

import (
	"math"
	"sort"
	"sync"

	"repro/internal/lppm"
	"repro/internal/rng"
	"repro/internal/trace"
)

// FNV-1a, 64-bit, fed eight bytes at a time.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvMix64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func fnvMixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// userDigest folds one user's protected records, in arrival order, into an
// FNV-1a hash plus a count: equal digests mean the same records in the same
// order, bit for bit (timestamps at wire precision, coordinates as float64
// bit patterns).
type userDigest struct {
	h uint64
	n int
}

func newUserDigest(user string) userDigest {
	return userDigest{h: fnvMixString(fnvOffset, user)}
}

func (d *userDigest) add(rec trace.Record) {
	d.h = fnvMix64(d.h, uint64(rec.Time.Unix()))
	d.h = fnvMix64(d.h, math.Float64bits(rec.Point.Lat))
	d.h = fnvMix64(d.h, math.Float64bits(rec.Point.Lng))
	d.n++
}

// combinedDigest folds per-user digests in sorted-user order: independent of
// how users interleave on the wire, sensitive to any change within a user.
func combinedDigest(users []string, per []userDigest) uint64 {
	idx := make([]int, len(users))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return users[idx[a]] < users[idx[b]] })
	h := fnvOffset
	for _, i := range idx {
		h = fnvMixString(h, users[i])
		h = fnvMix64(h, per[i].h)
		h = fnvMix64(h, uint64(per[i].n))
	}
	return h
}

// serverSeed is the lppm-serve -seed every stream workload runs under; the
// workload seed only shapes the inputs.
const serverSeed = 42

// geoiEpsilon is the GEO-I parameter every stream workload serves.
const geoiEpsilon = 0.01

// referenceDigests is the output oracle of the stream workloads: for every
// user it protects the records the benchmark sent with the batch path —
// lppm.ProtectDatasetWith over a one-user dataset, per-user randomness
// derived by name from the server seed — and digests the result. The
// serving plane promises stream ≡ batch bit-identity for GEO-I, so the
// digests must equal what the clients received. records(u, n) returns the
// first n records user u was sent.
func referenceDigests(users []string, sent []int, records func(u, n int) []trace.Record, workers int) ([]userDigest, error) {
	mech := lppm.NewGeoIndistinguishability()
	params := lppm.Params{lppm.EpsilonParam: geoiEpsilon}
	paramsFor := func(string) lppm.Params { return params }
	out := make([]userDigest, len(users))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for u := w; u < len(users); u += workers {
				out[u] = newUserDigest(users[u])
				if sent[u] == 0 {
					continue
				}
				tr, err := trace.NewTrace(users[u], records(u, sent[u]))
				if err != nil {
					errs[w] = err
					return
				}
				ds := trace.NewDataset()
				ds.Add(tr)
				prot, err := lppm.ProtectDatasetWith(ds, mech, paramsFor, rng.New(serverSeed))
				if err != nil {
					errs[w] = err
					return
				}
				for _, rec := range prot.Trace(users[u]).Records {
					out[u].add(rec)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// verify compares received digests against the reference and returns how
// many records failed: every record sent to a user whose output differs in
// count or content counts as failed.
func verify(sent []int, got, want []userDigest) (failed int) {
	for u := range want {
		if got[u] != want[u] {
			failed += max(sent[u], 1)
		}
	}
	return failed
}

// windowMatcher pairs each full window's last protected record with the due
// time of the input record that completed the window — window-emit latency.
// Windows are counted from the start of a stream (a server restart begins a
// fresh split, since the closing stream flushed every tail), so only full
// windows are ever matched: a tail flush never brings a user's count to the
// next multiple of the window size. Safe for one sender and one receiver
// goroutine at a time.
type windowMatcher struct {
	size int

	mu  sync.Mutex
	due [][]int64 // per user: due time of each window's last record
	got []int     // per user: records received this stream
}

func newWindowMatcher(users, size int) *windowMatcher {
	return &windowMatcher{size: size, due: make([][]int64, users), got: make([]int, users)}
}

// sent notes that user u's i-th record of this stream was due at dueNS;
// only window-completing records are kept.
func (m *windowMatcher) sent(u, i int, dueNS int64) {
	if (i+1)%m.size != 0 {
		return
	}
	m.mu.Lock()
	m.due[u] = append(m.due[u], dueNS)
	m.mu.Unlock()
}

// completes reports whether user u's i-th record closes a window.
func (m *windowMatcher) completes(i int) bool { return (i+1)%m.size == 0 }

// received counts one protected record of user u arriving at nowNS and,
// when it closes a full window, returns that window's emit latency.
func (m *windowMatcher) received(u int, nowNS int64) (int64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.got[u]++
	n := m.got[u]
	if n%m.size != 0 {
		return 0, false
	}
	k := n/m.size - 1
	if k >= len(m.due[u]) {
		return 0, false
	}
	return nowNS - m.due[u][k], true
}
