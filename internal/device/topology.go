package device

import "fmt"

// Topology is one realized defect map over a rows×cols cell grid: dead
// cells, disabled links between adjacent cells, and per-link latency
// multipliers on the surviving links. Cells are tiles, junctions, or
// regions depending on the consumer; the link layout matches the mesh
// convention (horizontal link (r,c)–(r,c+1), vertical (r,c)–(r+1,c)).
//
// A freshly built Topology is perfect; defects are applied through
// DisableTile/DisableLink/SetLinkWeight. Once any defect or non-unit
// weight exists the topology reports Degraded, which is the flag
// consumers use to leave the ideal grid (a nil view, an unmasked mesh).
type Topology struct {
	rows, cols int
	dead       []bool
	disH, disV []bool    // disabled links, mesh layout
	wH, wV     []float64 // latency multipliers; nil until first SetLinkWeight
	deadTiles  int
	disabled   int
	maxWeight  float64
	degraded   bool

	// Calibration overlay (nil/false until a snapshot is applied):
	// per-cell effective physical error rates and per-link gate error
	// rates. A calibrated topology reports Degraded even with no dead
	// cells, so consumers leave the ideal grid and price the
	// heterogeneity.
	tileErr    []float64
	eH, eV     []float64
	calibrated bool
}

// NewTopology returns a perfect rows×cols topology.
func NewTopology(rows, cols int) *Topology {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("device: invalid topology dims %dx%d", rows, cols))
	}
	return &Topology{
		rows:      rows,
		cols:      cols,
		dead:      make([]bool, rows*cols),
		disH:      make([]bool, rows*(cols-1)),
		disV:      make([]bool, (rows-1)*cols),
		maxWeight: 1,
	}
}

// Rows returns the cell-grid row count.
func (t *Topology) Rows() int { return t.rows }

// Cols returns the cell-grid column count.
func (t *Topology) Cols() int { return t.cols }

// InBounds reports whether the cell exists.
func (t *Topology) InBounds(c Coord) bool {
	return c.Row >= 0 && c.Row < t.rows && c.Col >= 0 && c.Col < t.cols
}

func (t *Topology) index(c Coord) int { return c.Row*t.cols + c.Col }

// linkSlot resolves an adjacent cell pair to its slice and index;
// ok=false for non-adjacent or out-of-bounds pairs.
func (t *Topology) linkSlot(a, b Coord) (horizontal bool, idx int, ok bool) {
	if !t.InBounds(a) || !t.InBounds(b) || !Adjacent(a, b) {
		return false, 0, false
	}
	if a.Row == b.Row {
		return true, a.Row*(t.cols-1) + min(a.Col, b.Col), true
	}
	return false, min(a.Row, b.Row)*t.cols + a.Col, true
}

// TileDead reports whether the cell is defective (out-of-bounds cells
// count as dead).
func (t *Topology) TileDead(c Coord) bool {
	if !t.InBounds(c) {
		return true
	}
	return t.dead[t.index(c)]
}

// DisableTile marks a cell defective and disables its incident links (a
// dead tile's channels are unusable).
func (t *Topology) DisableTile(c Coord) {
	if !t.InBounds(c) || t.dead[t.index(c)] {
		return
	}
	t.dead[t.index(c)] = true
	t.deadTiles++
	t.degraded = true
	for _, n := range [4]Coord{
		{Row: c.Row, Col: c.Col + 1}, {Row: c.Row, Col: c.Col - 1},
		{Row: c.Row + 1, Col: c.Col}, {Row: c.Row - 1, Col: c.Col},
	} {
		t.DisableLink(c, n)
	}
}

// LinkDisabled reports whether the link between two adjacent cells is
// unusable (non-adjacent and out-of-bounds pairs count as disabled).
func (t *Topology) LinkDisabled(a, b Coord) bool {
	h, i, ok := t.linkSlot(a, b)
	if !ok {
		return true
	}
	if h {
		return t.disH[i]
	}
	return t.disV[i]
}

// DisableLink marks the link between two adjacent cells unusable.
func (t *Topology) DisableLink(a, b Coord) {
	h, i, ok := t.linkSlot(a, b)
	if !ok {
		return
	}
	s := t.disV
	if h {
		s = t.disH
	}
	if !s[i] {
		s[i] = true
		t.disabled++
		t.degraded = true
	}
}

// LinkWeight returns the latency multiplier of the link between two
// adjacent cells (1 is ideal; disabled or invalid links report 1 — they
// are excluded by LinkDisabled, not priced).
func (t *Topology) LinkWeight(a, b Coord) float64 {
	if t.wH == nil {
		return 1
	}
	h, i, ok := t.linkSlot(a, b)
	if !ok {
		return 1
	}
	if h {
		if w := t.wH[i]; w > 0 && !t.disH[i] {
			return w
		}
		return 1
	}
	if w := t.wV[i]; w > 0 && !t.disV[i] {
		return w
	}
	return 1
}

// SetLinkWeight sets the latency multiplier of an adjacent-cell link
// (values below 1 are clamped to 1: links cannot beat the ideal).
func (t *Topology) SetLinkWeight(a, b Coord, w float64) {
	h, i, ok := t.linkSlot(a, b)
	if !ok {
		return
	}
	if w < 1 {
		w = 1
	}
	if t.wH == nil {
		t.wH = make([]float64, len(t.disH))
		t.wV = make([]float64, len(t.disV))
	}
	if h {
		t.wH[i] = w
	} else {
		t.wV[i] = w
	}
	if w > t.maxWeight {
		t.maxWeight = w
	}
	if w > 1 {
		t.degraded = true
	}
}

// Degraded reports whether the topology differs from the perfect grid
// in any way — dead cells, disabled links, non-unit weights, or a
// calibration overlay — the flag consumers use to stay on (or leave)
// the ideal grid.
func (t *Topology) Degraded() bool { return t.degraded || t.calibrated }

// Calibrated reports whether a calibration snapshot has been applied:
// per-cell and per-link error rates are meaningful and consumers should
// price heterogeneity per traversed link instead of by the worst link.
func (t *Topology) Calibrated() bool { return t.calibrated }

// markCalibrated switches the topology to calibrated semantics,
// allocating the overlay storage on first use.
func (t *Topology) markCalibrated() {
	if t.calibrated {
		return
	}
	t.calibrated = true
	t.tileErr = make([]float64, t.rows*t.cols)
	t.eH = make([]float64, len(t.disH))
	t.eV = make([]float64, len(t.disV))
}

// SetTileErrorRate records the effective physical error rate of one
// cell from its calibration (clamped to [0,1)) and marks the topology
// calibrated.
func (t *Topology) SetTileErrorRate(c Coord, p float64) {
	if !t.InBounds(c) {
		return
	}
	t.markCalibrated()
	if p < 0 {
		p = 0
	}
	if p >= 1 {
		p = 1 - 1e-12
	}
	t.tileErr[t.index(c)] = p
}

// TileErrorRate returns the calibrated effective physical error rate of
// a cell; 0 means uncalibrated (callers substitute the uniform rate).
func (t *Topology) TileErrorRate(c Coord) float64 {
	if !t.calibrated || !t.InBounds(c) {
		return 0
	}
	return t.tileErr[t.index(c)]
}

// SetLinkErrorRate records the two-qubit gate error rate of an
// adjacent-cell link (clamped to [0,1)) and marks the topology
// calibrated.
func (t *Topology) SetLinkErrorRate(a, b Coord, p float64) {
	h, i, ok := t.linkSlot(a, b)
	if !ok {
		return
	}
	t.markCalibrated()
	if p < 0 {
		p = 0
	}
	if p >= 1 {
		p = 1 - 1e-12
	}
	if h {
		t.eH[i] = p
	} else {
		t.eV[i] = p
	}
}

// LinkErrorRate returns the calibrated gate error rate of an
// adjacent-cell link; 0 means uncalibrated or invalid.
func (t *Topology) LinkErrorRate(a, b Coord) float64 {
	if !t.calibrated {
		return 0
	}
	h, i, ok := t.linkSlot(a, b)
	if !ok {
		return 0
	}
	if h {
		return t.eH[i]
	}
	return t.eV[i]
}

// DeadTiles returns the defective cell count.
func (t *Topology) DeadTiles() int { return t.deadTiles }

// DisabledLinks returns the unusable link count.
func (t *Topology) DisabledLinks() int { return t.disabled }

// MaxLinkWeight returns the largest latency multiplier on the grid.
func (t *Topology) MaxLinkWeight() float64 { return t.maxWeight }

// eachLink visits every potential link of the grid in a fixed order
// (horizontal row-major, then vertical row-major) — the order defect
// realization draws its randomness in.
func (t *Topology) eachLink(fn func(a, b Coord)) {
	for r := 0; r < t.rows; r++ {
		for c := 0; c+1 < t.cols; c++ {
			fn(Coord{Row: r, Col: c}, Coord{Row: r, Col: c + 1})
		}
	}
	for r := 0; r+1 < t.rows; r++ {
		for c := 0; c < t.cols; c++ {
			fn(Coord{Row: r, Col: c}, Coord{Row: r + 1, Col: c})
		}
	}
}

// Components labels every cell with its connected-component id over
// alive cells and enabled links; dead cells get -1. Two cells can
// communicate iff their labels are equal and non-negative — the
// routability precheck behind ErrUnroutable.
func (t *Topology) Components() []int32 {
	label := make([]int32, t.rows*t.cols)
	for i := range label {
		label[i] = -1
	}
	var queue []int32
	next := int32(0)
	for start := range label {
		if label[start] >= 0 || t.dead[start] {
			continue
		}
		label[start] = next
		queue = append(queue[:0], int32(start))
		for len(queue) > 0 {
			ci := int(queue[len(queue)-1])
			queue = queue[:len(queue)-1]
			cur := Coord{Row: ci / t.cols, Col: ci % t.cols}
			for _, n := range [4]Coord{
				{Row: cur.Row, Col: cur.Col + 1}, {Row: cur.Row, Col: cur.Col - 1},
				{Row: cur.Row + 1, Col: cur.Col}, {Row: cur.Row - 1, Col: cur.Col},
			} {
				if !t.InBounds(n) || t.TileDead(n) || t.LinkDisabled(cur, n) {
					continue
				}
				ni := t.index(n)
				if label[ni] < 0 {
					label[ni] = next
					queue = append(queue, int32(ni))
				}
			}
		}
		next++
	}
	return label
}
