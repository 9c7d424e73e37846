package geo

import "fmt"

// Cell identifies one square of a Grid by its integer column (east) and row
// (north) indices. Cells are comparable and usable as map keys, which is how
// the heat-map and entropy metrics count visits per cell.
type Cell struct {
	Col, Row int
}

// String implements fmt.Stringer.
func (c Cell) String() string { return fmt.Sprintf("c%d/r%d", c.Col, c.Row) }

// Grid tessellates the plane around an origin into square cells of a fixed
// size in meters. The paper's utility metric compares "area coverage ... at
// the scale of a city block"; a Grid with ~150 m cells is exactly that
// discretization. A Grid is immutable and safe for concurrent use.
type Grid struct {
	proj *Projection
	size float64
}

// NewGrid returns a grid of cellSizeMeters squares anchored at origin.
// It panics if cellSizeMeters is not strictly positive: a zero-size grid is a
// programming error, not a runtime condition.
func NewGrid(origin Point, cellSizeMeters float64) *Grid {
	if cellSizeMeters <= 0 {
		panic(fmt.Sprintf("geo: non-positive grid cell size %v", cellSizeMeters))
	}
	return &Grid{proj: NewProjection(origin), size: cellSizeMeters}
}

// CellSize returns the edge length of the grid cells in meters.
func (g *Grid) CellSize() float64 { return g.size }

// Origin returns the grid anchor point (corner of cell {0,0}).
func (g *Grid) Origin() Point { return g.proj.Origin() }

// CellOf returns the cell containing p.
func (g *Grid) CellOf(p Point) Cell {
	east, north := g.proj.ToPlane(p)
	return Cell{Col: floorDiv(east, g.size), Row: floorDiv(north, g.size)}
}

// CellCenter returns the geographic center of the given cell.
func (g *Grid) CellCenter(c Cell) Point {
	east := (float64(c.Col) + 0.5) * g.size
	north := (float64(c.Row) + 0.5) * g.size
	return g.proj.FromPlane(east, north)
}

// SnapToCellCenter returns p moved to the center of its cell. This is the
// primitive behind the grid-cloaking LPPM.
func (g *Grid) SnapToCellCenter(p Point) Point {
	return g.CellCenter(g.CellOf(p))
}

// Coverage returns the set of distinct cells visited by the given points.
func (g *Grid) Coverage(pts []Point) map[Cell]struct{} {
	cells := make(map[Cell]struct{}, len(pts)/4+1)
	for _, p := range pts {
		cells[g.CellOf(p)] = struct{}{}
	}
	return cells
}

// floorDiv returns floor(v/size) as an int, correct for negative v.
func floorDiv(v, size float64) int {
	q := v / size
	iq := int(q)
	if q < 0 && float64(iq) != q { //lppm:allow floatcmp -- exactness test by construction: truncation changed the value iff q had a fractional part, which is what floor correction needs
		iq--
	}
	return iq
}

// CellSetF1 returns the F1 similarity (harmonic mean of precision and
// recall) between a reference cell set and a candidate cell set. It is 1
// when the sets are identical and 0 when they are disjoint. By convention
// two empty sets are perfectly similar.
func CellSetF1(reference, candidate map[Cell]struct{}) float64 {
	if len(reference) == 0 && len(candidate) == 0 {
		return 1
	}
	if len(reference) == 0 || len(candidate) == 0 {
		return 0
	}
	var inter int
	small, large := reference, candidate
	if len(candidate) < len(reference) {
		small, large = candidate, reference
	}
	for c := range small {
		if _, ok := large[c]; ok {
			inter++
		}
	}
	precision := float64(inter) / float64(len(candidate))
	recall := float64(inter) / float64(len(reference))
	if precision+recall == 0 {
		return 0
	}
	return 2 * precision * recall / (precision + recall)
}

// CellSetJaccard returns |A∩B| / |A∪B|, with two empty sets similar (1).
func CellSetJaccard(a, b map[Cell]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	var inter int
	small, large := a, b
	if len(b) < len(a) {
		small, large = b, a
	}
	for c := range small {
		if _, ok := large[c]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}
