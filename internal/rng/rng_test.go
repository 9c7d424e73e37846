package rng

import (
	"math"
	"runtime"
	"strconv"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give identical streams")
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical draws", same)
	}
}

func TestSeedAccessor(t *testing.T) {
	if got := New(123).Seed(); got != 123 {
		t.Errorf("Seed() = %d, want 123", got)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	c0, c1 := root.Split(0), root.Split(1)
	if c0.Seed() == c1.Seed() {
		t.Fatal("sibling splits must have distinct seeds")
	}
	// Splitting must be stable: same index gives same stream.
	again := New(7).Split(0)
	for i := 0; i < 10; i++ {
		if c0.Float64() != again.Float64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestNamedStreams(t *testing.T) {
	root := New(7)
	a := root.Named("mobility")
	b := root.Named("noise")
	if a.Seed() == b.Seed() {
		t.Fatal("distinct labels must give distinct seeds")
	}
	a2 := New(7).Named("mobility")
	if a.Seed() != a2.Seed() {
		t.Fatal("Named must be deterministic")
	}
}

func TestSplitChildrenUniformish(t *testing.T) {
	// Weak statistical check: child streams should cover [0,1) roughly
	// uniformly in aggregate.
	root := New(99)
	var sum float64
	const n = 2000
	for i := 0; i < n; i++ {
		sum += root.Split(int64(i)).Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.05 {
		t.Errorf("child-stream first draws mean %v, want ~0.5", mean)
	}
}

func TestPosCountsDraws(t *testing.T) {
	s := New(5)
	if s.Pos() != 0 {
		t.Fatalf("fresh source Pos = %d, want 0", s.Pos())
	}
	s.Float64()
	s.Int63()
	s.Uint64()
	if s.Pos() == 0 {
		t.Fatal("Pos did not advance with draws")
	}
}

func TestSeekToRewindReplaysIdentically(t *testing.T) {
	s := New(42)
	for i := 0; i < 17; i++ {
		s.Float64()
	}
	pos := s.Pos()
	want := make([]float64, 25)
	for i := range want {
		want[i] = s.Float64()
	}
	// Consume more, including a normal draw, then rewind.
	s.NormFloat64()
	s.Intn(1000)
	s.SeekTo(pos)
	if s.Pos() != pos {
		t.Fatalf("after SeekTo Pos = %d, want %d", s.Pos(), pos)
	}
	for i, w := range want {
		if got := s.Float64(); got != w {
			t.Fatalf("replayed draw %d = %v, want %v", i, got, w)
		}
	}
}

func TestSeekToForward(t *testing.T) {
	a, b := New(9), New(9)
	for i := 0; i < 13; i++ {
		a.Float64()
	}
	b.SeekTo(a.Pos())
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("forward SeekTo must align the streams")
		}
	}
}

func TestSeekToDoesNotChangeSequence(t *testing.T) {
	// The counting wrapper must not alter the underlying stream: a source
	// that seeks to its own position draws exactly what an untouched
	// source draws.
	a, b := New(1234), New(1234)
	for i := 0; i < 50; i++ {
		if i%7 == 0 {
			a.SeekTo(a.Pos())
		}
		if a.Float64() != b.Float64() {
			t.Fatalf("draw %d diverged after no-op SeekTo", i)
		}
	}
}

func TestChildSeedMatchesNamed(t *testing.T) {
	root := New(31)
	if got, want := ChildSeed(31, "controller-sample"), root.Named("controller-sample").Seed(); got != want {
		t.Errorf("ChildSeed = %d, Named seed = %d", got, want)
	}
}

func TestMixUnit(t *testing.T) {
	var sum float64
	const n = 4000
	for i := int64(0); i < n; i++ {
		v := MixUnit(123, i)
		if v < 0 || v >= 1 {
			t.Fatalf("MixUnit(123, %d) = %v outside [0, 1)", i, v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.05 {
		t.Errorf("MixUnit mean %v, want ~0.5", mean)
	}
	if MixUnit(1, 7) != MixUnit(1, 7) {
		t.Error("MixUnit must be a pure function")
	}
	if MixUnit(1, 7) == MixUnit(2, 7) {
		t.Error("distinct seeds should give distinct values")
	}
}

func TestMixAvalanche(t *testing.T) {
	// Adjacent indices must produce wildly different seeds.
	s1, s2 := mix(1, 0), mix(1, 1)
	diff := s1 ^ s2
	bits := 0
	for i := 0; i < 64; i++ {
		if diff&(1<<i) != 0 {
			bits++
		}
	}
	if bits < 16 {
		t.Errorf("mix avalanche too weak: only %d differing bits", bits)
	}
}

// mixedDraw consumes one draw of a kind chosen by k, cycling through the
// entry points that take a different number of base steps per value.
func mixedDraw(s *Source, k int) float64 {
	switch k % 4 {
	case 0:
		return s.Float64()
	case 1:
		return s.NormFloat64()
	case 2:
		return s.ExpFloat64()
	default:
		return float64(s.Intn(1000))
	}
}

func TestSeekToMatchesFreshSource(t *testing.T) {
	const n = 400
	ref := New(77)
	pos := make([]uint64, n)
	want := make([]float64, n)
	for k := range want {
		pos[k] = ref.Pos()
		want[k] = mixedDraw(ref, k)
	}
	s := New(77)
	// Jump backward and forward across the recorded positions, checking
	// that each lands on the draw a fresh source makes there.
	for _, k := range []int{399, 3, 250, 0, 398, 1, 200, 199, 57} {
		s.SeekTo(pos[k])
		for j := k; j < n && j < k+5; j++ {
			if got := mixedDraw(s, j); got != want[j] {
				t.Fatalf("after SeekTo(%d): draw %d = %v, want %v", pos[k], j, got, want[j])
			}
		}
	}
}

func TestNewAllocations(t *testing.T) {
	if a := testing.AllocsPerRun(1000, func() { New(5) }); a > 3 {
		t.Errorf("New allocates %v times, want ≤ 3", a)
	}
	const n = 10000
	keep := make([]*Source, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = New(int64(i))
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / n; per >= 100 {
		t.Errorf("each Source holds %.1f B of heap, want < 100", per)
	}
}

// correlation returns Pearson's r of the paired samples.
func correlation(xs, ys []float64) float64 {
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(len(xs))
	my /= float64(len(ys))
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	return sxy / math.Sqrt(sxx*syy)
}

// TestStreamsUncorrelated is a sanity check on the ways streams derive
// from one seed: sibling splits, sibling named children, and MixUnit on the
// seed against both the seed's own stream and its Split children. Paired
// draws must be uncorrelated; at 64,000 pairs |r| has standard deviation
// 0.004, so the 0.02 bound is five deviations.
func TestStreamsUncorrelated(t *testing.T) {
	const streams, draws = 1000, 64
	const seed = 2024
	root := New(seed)
	splitDraws := make([][]float64, streams+1)
	namedDraws := make([][]float64, streams+1)
	for i := range splitDraws {
		split, named := root.Split(int64(i)), root.Named("user-"+strconv.Itoa(i))
		splitDraws[i] = make([]float64, draws)
		namedDraws[i] = make([]float64, draws)
		for k := 0; k < draws; k++ {
			splitDraws[i][k] = split.Float64()
			namedDraws[i][k] = named.Float64()
		}
	}
	own := New(seed)
	ownDraws := make([]float64, streams*draws)
	for j := range ownDraws {
		ownDraws[j] = own.Float64()
	}
	pairs := []struct {
		name string
		pair func(i, k int) (float64, float64)
	}{
		{"Split(i) vs Split(i+1)", func(i, k int) (float64, float64) { return splitDraws[i][k], splitDraws[i+1][k] }},
		{"Named siblings", func(i, k int) (float64, float64) { return namedDraws[i][k], namedDraws[i+1][k] }},
		{"MixUnit vs own stream", func(i, k int) (float64, float64) {
			j := i*draws + k
			return MixUnit(seed, int64(j)), ownDraws[j]
		}},
		{"MixUnit(seed, i) vs Split(i)", func(i, k int) (float64, float64) { return MixUnit(seed, int64(i)), splitDraws[i][k] }},
	}
	for _, p := range pairs {
		xs := make([]float64, 0, streams*draws)
		ys := make([]float64, 0, streams*draws)
		for i := 0; i < streams; i++ {
			for k := 0; k < draws; k++ {
				x, y := p.pair(i, k)
				xs, ys = append(xs, x), append(ys, y)
			}
		}
		if r := correlation(xs, ys); math.Abs(r) > 0.02 {
			t.Errorf("%s: correlation %.4f, want |r| ≤ 0.02", p.name, r)
		}
	}
}

func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(int64(i))
	}
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Float64()
	}
}

// BenchmarkSeekTo jumps 2²⁰ draws ahead and back, the move a restore or a
// failed-flush rewind makes on a long-lived stream.
func BenchmarkSeekTo(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.SeekTo(1 << 20)
		s.SeekTo(0)
	}
}

func TestFloat64MatchesRand(t *testing.T) {
	a, b := New(3), New(3)
	for i := 0; i < 1000; i++ {
		if x, y := a.Float64(), b.Rand.Float64(); x != y {
			t.Fatalf("draw %d: Source.Float64 = %v, Rand.Float64 = %v", i, x, y)
		}
	}
	if a.Pos() != b.Pos() {
		t.Errorf("positions %d and %d after equal draws", a.Pos(), b.Pos())
	}
}
