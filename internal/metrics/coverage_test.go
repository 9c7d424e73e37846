package metrics

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/trace"
)

// mapAreaCoverage is the set-of-cells definition of AreaCoverage that the
// tiled implementation replaced, kept as the reference the tiles must
// reproduce bit for bit: both coverage sets as map[geo.Cell]struct{},
// plain F1 at tolerance 0, neighbourhood probes otherwise.
func mapAreaCoverage(cfg AreaCoverageConfig, actual, protected *trace.Trace) float64 {
	if actual.Len() == 0 {
		if protected.Len() == 0 {
			return 1
		}
		return 0
	}
	if protected.Len() == 0 {
		return 0
	}
	first := actual.Records[0].Point
	grid := geo.NewGrid(geo.Point{Lat: math.Floor(first.Lat), Lng: math.Floor(first.Lng)}, cfg.CellSizeMeters)
	actualCov := grid.Coverage(actual.Points())
	protectedCov := grid.Coverage(protected.Points())
	if cfg.ToleranceCells == 0 {
		return geo.CellSetF1(actualCov, protectedCov)
	}
	covered := func(from, against map[geo.Cell]struct{}) float64 {
		hit := 0
		for c := range from {
		probe:
			for dc := -cfg.ToleranceCells; dc <= cfg.ToleranceCells; dc++ {
				for dr := -cfg.ToleranceCells; dr <= cfg.ToleranceCells; dr++ {
					if _, ok := against[geo.Cell{Col: c.Col + dc, Row: c.Row + dr}]; ok {
						hit++
						break probe
					}
				}
			}
		}
		return float64(hit) / float64(len(from))
	}
	precision := covered(protectedCov, actualCov)
	recall := covered(actualCov, protectedCov)
	if precision+recall == 0 {
		return 0
	}
	return 2 * precision * recall / (precision + recall)
}

// fuzzCoverageBase sits just north-east of a whole degree, so the grid
// origin (the floor of the first point) is close by and points offset
// south or west of it land in negative rows and columns.
var fuzzCoverageBase = geo.Point{Lat: 45.0005, Lng: 7.0005}

// fuzzCoverageTrace decodes 5-byte groups into points: int16 east and
// north offsets in units of 3 m (±98 km), and a flag byte whose low bit
// moves the point into a second cluster 500 km to the north-east. shiftKm moves every
// point further east, which takes a protected trace wholly off the actual
// trace's tiles.
func fuzzCoverageTrace(t *testing.T, raw []byte, shiftKm float64) *trace.Trace {
	t.Helper()
	t0 := time.Date(2008, 5, 17, 0, 0, 0, 0, time.UTC)
	var recs []trace.Record
	for i := 0; i+5 <= len(raw) && len(recs) < 512; i += 5 {
		east := 3*float64(int16(binary.LittleEndian.Uint16(raw[i:]))) + shiftKm*1000
		north := 3 * float64(int16(binary.LittleEndian.Uint16(raw[i+2:])))
		if raw[i+4]&1 == 1 {
			east, north = east+clusterStep, north+clusterStep
		}
		recs = append(recs, trace.Record{User: "u", Time: t0.Add(time.Duration(len(recs)) * time.Second),
			Point: fuzzCoverageBase.Offset(east, north)})
	}
	tr, err := trace.NewTrace("u", recs)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// FuzzAreaCoverageDifferential holds the tiled AreaCoverage to the map
// reference, bit for bit, at tolerance 0–2 and cell sizes 20–1043 m. Each
// input is scored through a fresh evaluator and twice through one prepared
// evaluator that first scored a different release, so stale scratch would
// show.
func FuzzAreaCoverageDifferential(f *testing.F) {
	f.Fuzz(func(t *testing.T, tol, size uint8, far bool, actualRaw, protectedRaw []byte) {
		cfg := AreaCoverageConfig{CellSizeMeters: 20 + 4*float64(size), ToleranceCells: int(tol % 3)}
		shift := 0.0
		if far {
			shift = 60
		}
		actual := fuzzCoverageTrace(t, actualRaw, 0)
		protected := fuzzCoverageTrace(t, protectedRaw, shift)
		want := mapAreaCoverage(cfg, actual, protected)
		m := MustAreaCoverage(cfg)
		got, err := m.Evaluate(actual, protected)
		if err != nil {
			t.Fatal(err)
		}
		prep := m.Prepare(actual)
		if _, err := prep.Evaluate(actual); err != nil {
			t.Fatal(err)
		}
		again, err := prep.Evaluate(protected)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []float64{got, again} {
			if math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("%+v: tiles give %v, map reference %v (actual %d recs, protected %d recs)",
					cfg, v, want, actual.Len(), protected.Len())
			}
		}
	})
}

// clusterStep is the east and the north offset between two clusters
// 500 km apart.
const clusterStep = 500e3 / math.Sqrt2

// twoClusterTrace is a driver who spends the morning in one city and the
// afternoon in another 500 km to the north-east: two 17×17 lattices of
// points spacing metres apart.
func twoClusterTrace(t *testing.T, n int, spacing float64) *trace.Trace {
	t.Helper()
	t0 := time.Date(2008, 5, 17, 0, 0, 0, 0, time.UTC)
	recs := make([]trace.Record, n)
	for i := range recs {
		east, north := float64(i%17)*spacing, float64((i/17)%17)*spacing
		if i >= n/2 {
			east, north = east+clusterStep, north+clusterStep
		}
		recs[i] = trace.Record{User: "u", Time: t0.Add(time.Duration(i) * time.Minute), Point: fuzzCoverageBase.Offset(east, north)}
	}
	tr, err := trace.NewTrace("u", recs)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestAreaCoverageMatchesMapReference runs fixed cases through the same
// comparison as the fuzz target: tolerances 0–3, a release spanning two
// cities, one wholly off the actual tiles, an empty one and the actual
// trace itself.
func TestAreaCoverageMatchesMapReference(t *testing.T) {
	actual := prepTestTrace(t, "u1", 400, 21)
	clusters := twoClusterTrace(t, 600, 180)
	releases := map[string]*trace.Trace{
		"jitter40":  jitter(t, actual, 40, 1, 22),
		"jitter400": jitter(t, actual, 400, 2, 23),
		"clusters":  clusters,
		"identical": actual,
		"empty":     {User: "u1"},
	}
	for tol := 0; tol <= 3; tol++ {
		cfg := AreaCoverageConfig{CellSizeMeters: 200, ToleranceCells: tol}
		for _, act := range []*trace.Trace{actual, clusters} {
			prep := MustAreaCoverage(cfg).Prepare(act)
			for name, rel := range releases {
				got, err := prep.Evaluate(rel)
				if err != nil {
					t.Fatal(err)
				}
				if want := mapAreaCoverage(cfg, act, rel); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("tol %d, %s vs %d-record actual: tiles %v, map reference %v", tol, name, act.Len(), got, want)
				}
			}
		}
	}
}

func TestPreparedAreaCoverageAllocs(t *testing.T) {
	actual := prepTestTrace(t, "u1", 500, 15)
	protected := jitter(t, actual, 300, 1, 16)
	prep := MustAreaCoverage(DefaultAreaCoverageConfig()).Prepare(actual)
	if _, err := prep.Evaluate(protected); err != nil { // warm up scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := prep.Evaluate(protected); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Errorf("repeat prepared AreaCoverage.Evaluate allocates %v per run, want 0", allocs)
	}
}

// TestAreaCoveragePrepareMemory bounds what Prepare allocates for a trace
// whose two clusters lie 500 km apart. A dense bitmap over their bounding
// box of about 1900×1900 200 m cells would take 450 KB; the tiles must cost
// in proportion to the distinct cells instead. With one cell per tile the
// actual set and its dilation hold up to five tiles per cell, about 130 B
// of map, growth included.
func TestAreaCoveragePrepareMemory(t *testing.T) {
	const bytesPerCell = 256
	tr := twoClusterTrace(t, 578, 1700) // about one cell per tile: the worst case for tiles
	m := MustAreaCoverage(DefaultAreaCoverageConfig())
	first := tr.Records[0].Point
	grid := geo.NewGrid(geo.Point{Lat: math.Floor(first.Lat), Lng: math.Floor(first.Lng)}, 200)
	cells := len(grid.Coverage(tr.Points()))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	prep := m.Prepare(tr)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(prep)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Prepare of %d cells allocated %d B", cells, got)
	if budget := uint64(bytesPerCell * cells); got > budget {
		t.Errorf("Prepare of %d cells allocated %d B, budget %d B (%d B/cell)", cells, got, budget, bytesPerCell)
	}
}
