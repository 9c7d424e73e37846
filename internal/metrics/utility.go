package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/geo"
	"repro/internal/stat"
	"repro/internal/trace"
)

// AreaCoverageConfig tunes the paper's utility metric.
type AreaCoverageConfig struct {
	// CellSizeMeters is the city-block discretization (paper §2:
	// "location precision at the scale of a city block").
	CellSizeMeters float64
	// ToleranceCells is the neighborhood radius (in cells, Chebyshev)
	// within which a protected cell still counts as covering an actual
	// cell: the paper tolerates a divergence "about the size of a city
	// block", i.e. one cell.
	ToleranceCells int
}

// DefaultAreaCoverageConfig returns the configuration used by the
// reproduction experiments: 200 m blocks with a one-block tolerance.
func DefaultAreaCoverageConfig() AreaCoverageConfig {
	return AreaCoverageConfig{CellSizeMeters: 200, ToleranceCells: 1}
}

// AreaCoverage is the paper's utility metric: it compares the set of city
// blocks covered by the actual trace with the set covered by the protected
// trace, scoring their F1 similarity with a one-block tolerance. 1 means
// the protected data serves exactly the same blocks; 0 means coverage is
// unrelated. The paper's utility objective ("80 % of requests concern the
// block where the user is") corresponds to AreaCoverage ≥ 0.8.
type AreaCoverage struct {
	cfg AreaCoverageConfig
}

// NewAreaCoverage builds the metric, validating the configuration.
func NewAreaCoverage(cfg AreaCoverageConfig) (*AreaCoverage, error) {
	if cfg.CellSizeMeters <= 0 {
		return nil, fmt.Errorf("metrics: CellSizeMeters must be positive, got %v", cfg.CellSizeMeters)
	}
	if cfg.ToleranceCells < 0 {
		return nil, fmt.Errorf("metrics: ToleranceCells must be non-negative, got %d", cfg.ToleranceCells)
	}
	return &AreaCoverage{cfg: cfg}, nil
}

// MustAreaCoverage is NewAreaCoverage that panics on configuration errors.
func MustAreaCoverage(cfg AreaCoverageConfig) *AreaCoverage {
	m, err := NewAreaCoverage(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Name implements Metric.
func (*AreaCoverage) Name() string { return "area_coverage" }

// Kind implements Metric.
func (*AreaCoverage) Kind() Kind { return Utility }

// Evaluate implements Metric. It is the prepared path run once: Prepare
// then Evaluate, so the two paths cannot diverge.
func (m *AreaCoverage) Evaluate(actual, protected *trace.Trace) (float64, error) {
	return m.Prepare(actual).Evaluate(protected)
}

// Prepare implements Preparable: the shared tessellation, the actual
// trace's cell set and that set dilated by ToleranceCells are built once;
// Evaluate reuses two scratch sets.
func (m *AreaCoverage) Prepare(actual *trace.Trace) PreparedMetric {
	p := &preparedAreaCoverage{tol: m.cfg.ToleranceCells}
	if actual.Len() == 0 {
		p.emptyActual = true
		return p
	}
	// One shared tessellation anchored at a data-independent corner.
	first := actual.Records[0].Point
	origin := geo.Point{Lat: math.Floor(first.Lat), Lng: math.Floor(first.Lng)}
	p.grid = geo.NewGrid(origin, m.cfg.CellSizeMeters)
	p.actual, p.dilated = make(cellTiles), make(cellTiles)
	for _, r := range actual.Records {
		c := p.grid.CellOf(r.Point)
		if p.actual.add(c) {
			p.actualCells++
			p.dilated.addSquare(c, p.tol)
		}
	}
	return p
}

// preparedAreaCoverage is AreaCoverage with the grid, the actual cell set
// and its dilation hoisted, and the protected-side sets reused across
// calls. Precision counts the distinct protected cells that fall in the
// dilation (an actual cell lies within tol); recall counts the actual cells
// that fall in the protected cells' dilation. Both are the integer counts
// of the plain set definition, so the F1 is exact.
type preparedAreaCoverage struct {
	tol         int
	emptyActual bool
	grid        *geo.Grid
	actual      cellTiles
	actualCells int
	dilated     cellTiles // actual dilated by tol
	seen        cellTiles // scratch: distinct protected cells
	reached     cellTiles // scratch: seen dilated by tol
}

// Evaluate implements PreparedMetric.
func (p *preparedAreaCoverage) Evaluate(protected *trace.Trace) (float64, error) {
	if p.emptyActual {
		if protected.Len() == 0 {
			return 1, nil
		}
		return 0, nil
	}
	if protected.Len() == 0 {
		return 0, nil
	}
	if p.seen == nil {
		p.seen, p.reached = make(cellTiles), make(cellTiles)
	} else {
		clear(p.seen)
		clear(p.reached)
	}
	cells, hits := 0, 0
	for _, r := range protected.Records {
		c := p.grid.CellOf(r.Point)
		if !p.seen.add(c) {
			continue
		}
		cells++
		if p.dilated.has(c) {
			hits++
		}
		p.reached.addSquare(c, p.tol)
	}
	inter := 0
	for k, m := range p.reached {
		inter += bits.OnesCount64(m & p.actual[k])
	}
	precision := float64(hits) / float64(cells)
	recall := float64(inter) / float64(p.actualCells)
	if precision+recall == 0 {
		return 0, nil
	}
	return 2 * precision * recall / (precision + recall), nil
}

// cellTiles is a sparse set of grid cells held as 8×8-cell tiles: the key
// packs the tile's (Row>>3, Col>>3), the value has bit (Row&7)·8 + (Col&7)
// set for each member. Memory follows the occupied tiles, not the extent of
// the set. Keys are exact while tile indices fit in 32 bits, |Col| and
// |Row| below 2³⁴: on Earth, any cell larger than 3 mm.
type cellTiles map[uint64]uint64

func tileKey(row, col int) uint64 {
	return uint64(uint32(row>>3))<<32 | uint64(uint32(col>>3))
}

func cellBit(c geo.Cell) uint64 { return 1 << (uint(c.Row&7)<<3 | uint(c.Col&7)) }

// add inserts c and reports whether it was absent.
func (s cellTiles) add(c geo.Cell) bool {
	k, b := tileKey(c.Row, c.Col), cellBit(c)
	m := s[k]
	if m&b != 0 {
		return false
	}
	s[k] = m | b
	return true
}

func (s cellTiles) has(c geo.Cell) bool { return s[tileKey(c.Row, c.Col)]&cellBit(c) != 0 }

// rowSpread[n] has the low bit of each of the first n bytes set: times an
// 8-bit row mask it repeats that row n times down a tile.
var rowSpread = [9]uint64{0, 0x01, 0x0101, 0x010101, 0x01010101, 0x0101010101,
	0x010101010101, 0x01010101010101, 0x0101010101010101}

// addSquare inserts every cell within Chebyshev distance tol of c, one
// mask OR per tile the square touches.
func (s cellTiles) addSquare(c geo.Cell, tol int) {
	r0, r1, c0, c1 := c.Row-tol, c.Row+tol, c.Col-tol, c.Col+tol
	for tr := r0 &^ 7; tr <= r1; tr += 8 {
		rlo, rhi := max(r0, tr), min(r1, tr+7)
		for tc := c0 &^ 7; tc <= c1; tc += 8 {
			clo, chi := max(c0, tc), min(c1, tc+7)
			row := (uint64(1)<<uint(chi-clo+1) - 1) << uint(clo-tc)
			s[tileKey(tr, tc)] |= row * rowSpread[rhi-rlo+1] << uint((rlo-tr)<<3)
		}
	}
}

// MeanDisplacement is an auxiliary utility metric: the mean distance in
// meters between actual and protected records, paired by timestamp. Unlike
// the paper metrics it is unbounded; lower is better. It demonstrates the
// framework's metric modularity (paper §3) and feeds the ablation benches.
type MeanDisplacement struct{}

// Name implements Metric.
func (MeanDisplacement) Name() string { return "mean_displacement" }

// Kind implements Metric.
func (MeanDisplacement) Kind() Kind { return Utility }

// Evaluate implements Metric. Records are paired by identical timestamps;
// traces with no common timestamps (e.g. after temporal sampling removed
// everything) yield an error.
func (m MeanDisplacement) Evaluate(actual, protected *trace.Trace) (float64, error) {
	return m.Prepare(actual).Evaluate(protected)
}

// Prepare implements Preparable. The pairing index is keyed by the
// protected side (last record wins on duplicate timestamps, as in the
// unprepared path), so preparation only pins the actual trace and reuses
// the index map across calls.
func (MeanDisplacement) Prepare(actual *trace.Trace) PreparedMetric {
	return &preparedMeanDisplacement{actual: actual}
}

// preparedMeanDisplacement is MeanDisplacement with the timestamp index map
// reused across calls.
type preparedMeanDisplacement struct {
	actual *trace.Trace
	byTime map[int64]geo.Point // scratch, cleared per call
}

// Evaluate implements PreparedMetric.
func (p *preparedMeanDisplacement) Evaluate(protected *trace.Trace) (float64, error) {
	if p.actual.Len() == 0 {
		return 0, nil
	}
	if p.byTime == nil {
		p.byTime = make(map[int64]geo.Point, protected.Len())
	} else {
		clear(p.byTime)
	}
	for _, r := range protected.Records {
		p.byTime[r.Time.UnixNano()] = r.Point
	}
	var sum float64
	var n int
	for _, r := range p.actual.Records {
		if q, ok := p.byTime[r.Time.UnixNano()]; ok {
			sum += geo.Equirectangular(r.Point, q)
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("metrics: no timestamp-aligned records to compare")
	}
	return sum / float64(n), nil
}

// CoverageEntropyGain is an auxiliary privacy metric: how much the
// normalized spatial entropy of the trace increased under protection.
// Noise spreads a user's footprint over more blocks, raising entropy; a
// positive gain therefore indicates harder-to-profile data. It is bounded
// in [-1, 1].
type CoverageEntropyGain struct {
	// CellSizeMeters discretizes space; zero uses 200 m.
	CellSizeMeters float64
}

// Name implements Metric.
func (CoverageEntropyGain) Name() string { return "coverage_entropy_gain" }

// Kind implements Metric.
func (CoverageEntropyGain) Kind() Kind { return Privacy }

// Evaluate implements Metric.
func (m CoverageEntropyGain) Evaluate(actual, protected *trace.Trace) (float64, error) {
	return m.Prepare(actual).Evaluate(protected)
}

// Prepare implements Preparable: the actual side's entropy is computed once
// and the protected side's cell-count buffers are reused across calls.
func (m CoverageEntropyGain) Prepare(actual *trace.Trace) PreparedMetric {
	size := m.CellSizeMeters
	if size == 0 {
		size = 200
	}
	p := &preparedCoverageEntropyGain{size: size}
	if size < 0 {
		p.err = fmt.Errorf("metrics: negative cell size %v", size)
		return p
	}
	p.actualEntropy = p.scratch.normalizedCellEntropy(actual, size)
	return p
}

// preparedCoverageEntropyGain is CoverageEntropyGain with the actual
// entropy hoisted.
type preparedCoverageEntropyGain struct {
	size          float64
	err           error
	actualEntropy float64
	scratch       entropyScratch
}

// Evaluate implements PreparedMetric.
func (p *preparedCoverageEntropyGain) Evaluate(protected *trace.Trace) (float64, error) {
	if p.err != nil {
		return 0, p.err
	}
	return p.scratch.normalizedCellEntropy(protected, p.size) - p.actualEntropy, nil
}

// entropyScratch reuses the cell-count map and slice across entropy
// computations. The zero value is ready to use.
type entropyScratch struct {
	counts map[geo.Cell]int
	cs     []int
}

// normalizedCellEntropy returns the trace's Shannon entropy over grid
// cells, normalized by the maximum for the observed cell count. Counts are
// sorted before summation so the floating-point accumulation order — and
// therefore the result — does not depend on map iteration order.
func (s *entropyScratch) normalizedCellEntropy(t *trace.Trace, cellSize float64) float64 {
	if t.Len() == 0 {
		return 0
	}
	first := t.Records[0].Point
	origin := geo.Point{Lat: math.Floor(first.Lat), Lng: math.Floor(first.Lng)}
	grid := geo.NewGrid(origin, cellSize)
	if s.counts == nil {
		s.counts = make(map[geo.Cell]int)
	} else {
		clear(s.counts)
	}
	for _, r := range t.Records {
		s.counts[grid.CellOf(r.Point)]++
	}
	if len(s.counts) <= 1 {
		return 0
	}
	cs := s.cs[:0]
	for _, c := range s.counts {
		cs = append(cs, c)
	}
	sort.Ints(cs)
	s.cs = cs
	return stat.EntropyOfCounts(cs) / math.Log(float64(len(cs)))
}
