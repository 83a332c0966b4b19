package topology

import "fmt"

// Torus is a 3D torus: nodes arranged on an X×Y×Z grid with wrap-around
// links in every dimension. Switches are integrated into the nodes (direct
// topology), so no terminal hop is needed: the hop count between two nodes
// is the sum of the per-dimension ring distances. Routing is
// dimension-ordered (X, then Y, then Z), taking the shorter ring direction
// in each dimension; this is shortest-path.
//
// With wrap disabled (NewMesh) the same structure models a 3D mesh, the
// ablation case for how much of the torus results the wrap-around links
// are responsible for.
type Torus struct {
	x, y, z int
	wrap    bool
	wiring
	// dirLink[node*6+d] is the link index leaving node in direction d
	// (0 +x, 1 -x, 2 +y, 3 -y, 4 +z, 5 -z); -1 where the dimension has
	// size one. Precomputed so routing needs no map lookups.
	dirLink []int
	// coordTab[node*3+d] is the node's coordinate in dimension d,
	// precomputed so the per-pair hop/route loops skip the div/mod
	// decomposition.
	coordTab []int32
}

// NewTorus constructs an X×Y×Z torus. All dimensions must be positive.
func NewTorus(x, y, z int) (*Torus, error) {
	return newGrid(x, y, z, true)
}

// NewMesh constructs an X×Y×Z mesh: the torus structure without the
// wrap-around links.
func NewMesh(x, y, z int) (*Torus, error) {
	return newGrid(x, y, z, false)
}

func newGrid(x, y, z int, wrap bool) (*Torus, error) {
	if x <= 0 || y <= 0 || z <= 0 {
		return nil, fmt.Errorf("topology: invalid torus dimensions (%d,%d,%d)", x, y, z)
	}
	t := &Torus{x: x, y: y, z: z, wrap: wrap}
	n := x * y * z
	t.dirLink = make([]int, n*6)
	for i := range t.dirLink {
		t.dirLink[i] = -1
	}
	t.coordTab = make([]int32, n*3)
	for v := 0; v < n; v++ {
		t.coordTab[v*3] = int32(v % x)
		t.coordTab[v*3+1] = int32((v / x) % y)
		t.coordTab[v*3+2] = int32(v / (x * y))
	}
	// One +direction link per node per dimension. A dimension of size 2
	// has a single link per node pair (the "wrap" coincides with the
	// direct link); size 1 has none.
	for v := 0; v < n; v++ {
		cx, cy, cz := t.coords(v)
		if x > 1 && (cx+1 < x || (wrap && x > 2)) {
			t.addLink(v, t.id((cx+1)%x, cy, cz), 0, t.wrapSize(x))
		}
		if y > 1 && (cy+1 < y || (wrap && y > 2)) {
			t.addLink(v, t.id(cx, (cy+1)%y, cz), 2, t.wrapSize(y))
		}
		if z > 1 && (cz+1 < z || (wrap && z > 2)) {
			t.addLink(v, t.id(cx, cy, (cz+1)%z), 4, t.wrapSize(z))
		}
	}
	return t, nil
}

// wrapSize returns the ring size addLink should treat a dimension as: in
// mesh mode wrap semantics never apply, so any value above 2 suffices.
func (t *Torus) wrapSize(size int) int {
	if !t.wrap && size == 2 {
		// A 2-node mesh dimension still has one link serving both
		// directions of both nodes.
		return 2
	}
	if !t.wrap {
		return size + 1 // suppress the size==2 double-direction rule
	}
	return size
}

// addLink records the link a→b in the positive direction of the dimension
// whose positive direction index is dirPlus, and fills the direction
// tables for both endpoints (in a size-2 dimension the single link serves
// both directions of both nodes).
func (t *Torus) addLink(a, b, dirPlus, size int) {
	li := t.link(a, b, ClassLocal)
	t.dirLink[a*6+dirPlus] = li
	t.dirLink[b*6+dirPlus+1] = li
	if size == 2 {
		t.dirLink[a*6+dirPlus+1] = li
		t.dirLink[b*6+dirPlus] = li
	}
}

// Dims returns the torus dimensions.
func (t *Torus) Dims() (x, y, z int) { return t.x, t.y, t.z }

// Name implements Topology.
func (t *Torus) Name() string { return fmt.Sprintf("%s(%d,%d,%d)", t.Kind(), t.x, t.y, t.z) }

// Kind implements Topology.
func (t *Torus) Kind() string {
	if !t.wrap {
		return "mesh"
	}
	return "torus"
}

// Nodes implements Topology.
func (t *Torus) Nodes() int { return t.x * t.y * t.z }

// NumVertices implements Topology. Switches are integrated, so the vertex
// space equals the node space.
func (t *Torus) NumVertices() int { return t.Nodes() }

func (t *Torus) id(cx, cy, cz int) int { return (cz*t.y+cy)*t.x + cx }

func (t *Torus) coords(n int) (cx, cy, cz int) {
	return int(t.coordTab[n*3]), int(t.coordTab[n*3+1]), int(t.coordTab[n*3+2])
}

// ringDist returns the shortest ring distance between coordinates a and b
// in a dimension of the given size.
func ringDist(a, b, size int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if wrap := size - d; wrap < d {
		return wrap
	}
	return d
}

// axisDist returns the hop distance between coordinates a and b on an
// axis of the given size: the shorter way round on a torus, the
// difference on a mesh.
func (t *Torus) axisDist(a, b, size int) int {
	if t.wrap {
		return ringDist(a, b, size)
	}
	return absDiff(a, b)
}

// HopCount implements Topology: the sum of the per-axis distances.
func (t *Torus) HopCount(src, dst int) int {
	sx, sy, sz := t.coords(src)
	dx, dy, dz := t.coords(dst)
	return t.axisDist(sx, dx, t.x) + t.axisDist(sy, dy, t.y) + t.axisDist(sz, dz, t.z)
}

// AxisRow returns a zeroed axis row: one value per coordinate, the X
// coordinates first, then the Y, then the Z.
func (t *Torus) AxisRow() []uint64 { return make([]uint64, t.x+t.y+t.z) }

// AddAxisDistances adds w times the distance from node's coordinate to
// every coordinate of the same axis into row, an axis row.
func (t *Torus) AddAxisDistances(row []uint64, node int, w uint64) {
	base := 0
	for i, size := range [3]int{t.x, t.y, t.z} {
		c := int(t.coordTab[node*3+i])
		for j := 0; j < size; j++ {
			row[base+j] += w * uint64(t.axisDist(c, j, size))
		}
		base += size
	}
}

// AxisSum returns the sum of row's values at node's three coordinates.
// A hop count is a sum of per-axis distances, so once AddAxisDistances
// has added nodes n1..nk with weights w1..wk, AxisSum(row, v) is the sum
// of wi × HopCount(v, ni).
func (t *Torus) AxisSum(row []uint64, node int) uint64 {
	c := t.coordTab[node*3 : node*3+3]
	return row[c[0]] + row[t.x+int(c[1])] + row[t.x+t.y+int(c[2])]
}

func absDiff(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}

// Route implements Topology. Dimension-ordered: within one dimension the
// shorter ring way never changes as the walk advances, so the direction
// (positive on ties, direct on a mesh) is decided once per dimension and
// the walk is plain stride arithmetic on the node id.
func (t *Torus) Route(src, dst int, buf []int) ([]int, error) {
	if err := checkEndpoints(t.Nodes(), src, dst); err != nil {
		return nil, err
	}
	buf = buf[:0]
	var sc, dc [3]int
	sc[0], sc[1], sc[2] = t.coords(src)
	dc[0], dc[1], dc[2] = t.coords(dst)
	sizes := [3]int{t.x, t.y, t.z}
	strides := [3]int{1, t.x, t.x * t.y}
	cur := src
	for dim := 0; dim < 3; dim++ {
		from, to, size := sc[dim], dc[dim], sizes[dim]
		if from == to {
			continue
		}
		step, dir := 1, dim*2
		n := to - from
		if t.wrap {
			fwd := (n + size) % size
			if fwd <= size-fwd {
				n = fwd
			} else {
				n = size - fwd
				step, dir = -1, dim*2+1
			}
		} else if n < 0 {
			n, step, dir = -n, -1, dim*2+1
		}
		stride := strides[dim]
		for i := 0; i < n; i++ {
			li := t.dirLink[cur*6+dir]
			if li < 0 {
				return nil, fmt.Errorf("topology: torus missing link at node %d dir %d", cur, dir)
			}
			buf = append(buf, li)
			next := from + step
			if next == size {
				next = 0
			} else if next < 0 {
				next = size - 1
			}
			cur += (next - from) * stride
			from = next
		}
	}
	return buf, nil
}

// AccumulateFlows implements Topology. Hop counts come from the
// source's ring distances per coordinate. The dimension-ordered routes
// from one source form a tree, so its link loads need no route walks:
// the bytes bound for each node are gathered in a node vector and, when
// the source changes, drained toward the source by three ring sweeps
// (see sweep). The sweeps leave the vector zero, so it is never cleared.
func (t *Torus) AccumulateFlows(flows Flows, linkBytes []uint64) (FlowLoad, error) {
	if err := checkLinkBytes(t, linkBytes); err != nil {
		return FlowLoad{}, err
	}
	n, dims := t.Nodes(), t.x+t.y+t.z
	a := &torusFlows{t: t, links: linkBytes, src: -1}
	if linkBytes != nil {
		scratch := make([]uint64, n+dims)
		a.vec, a.dist = scratch[:n], scratch[n:]
	} else {
		a.dist = make([]uint64, dims)
	}
	flows(a.visit)
	a.sweep()
	return a.load, nil
}

// torusFlows is the state of one Torus.AccumulateFlows call.
type torusFlows struct {
	t     *Torus
	links []uint64
	load  FlowLoad
	src   int      // current source node, -1 before the first flow
	vec   []uint64 // bytes bound for each node from src; nil without links
	// dist is src's axis row (AddAxisDistances), so a hop count is
	// three lookups.
	dist []uint64
}

func (a *torusFlows) visit(src, dst int, bytes, packets, messages uint64) {
	t := a.t
	if src != a.src {
		a.sweep()
		a.src = src
		clear(a.dist)
		t.AddAxisDistances(a.dist, src, 1)
	}
	h := t.AxisSum(a.dist, dst)
	a.load.add(bytes, packets, messages, h, false) // a torus has no global links
	if a.vec != nil {
		a.vec[dst] += bytes
	}
}

// sweep drains the current source's node vector onto the links of its
// routes. Routes run X, then Y, then Z, so the bytes bound for a node
// travel the Z column above it from the source's plane, those reaching
// the plane travel its Y line from the source's X line, and those
// reaching that line travel it from the source: the Z columns are swept
// into the source's plane, the plane's Y lines into the source's X line,
// and that line into the source.
func (a *torusFlows) sweep() {
	if a.vec == nil || a.src < 0 {
		return
	}
	t := a.t
	sx, sy, sz := t.coords(a.src)
	plane := t.x * t.y
	for col := 0; col < plane; col++ {
		a.sweepRing(col, plane, t.z, sz, 4)
	}
	for x := 0; x < t.x; x++ {
		a.sweepRing(sz*plane+x, t.x, t.y, sy, 2)
	}
	a.sweepRing(sz*plane+sy*t.x, 1, t.x, sx, 0)
	a.vec[a.src] = 0
}

// sweepRing drains the ring of the size nodes first + i·stride onto its
// node at position s. dirPlus is the ring's positive direction index
// (see dirLink). Each side is walked from its far end inward, carrying
// the bytes bound beyond each node onto the link toward s; routes take
// the shorter way round, and the positive one on a tie.
func (a *torusFlows) sweepRing(first, stride, size, s, dirPlus int) {
	if size == 1 {
		return
	}
	t, vec, links := a.t, a.vec, a.links
	fwd, back := size-1-s, s // mesh: everything above s, everything below
	if t.wrap {
		fwd = size / 2
		back = size - 1 - fwd
	}
	var carried uint64
	for i := fwd; i >= 1; i-- { // reached from s in the positive direction
		p := s + i
		if p >= size {
			p -= size
		}
		v := first + p*stride
		carried += vec[v]
		vec[v] = 0
		links[t.dirLink[v*6+dirPlus+1]] += carried // the link back toward s
	}
	home := first + s*stride
	vec[home] += carried
	carried = 0
	for i := back; i >= 1; i-- { // reached in the negative direction
		p := s - i
		if p < 0 {
			p += size
		}
		v := first + p*stride
		carried += vec[v]
		vec[v] = 0
		links[t.dirLink[v*6+dirPlus]] += carried
	}
	vec[home] += carried
}

var _ Topology = (*Torus)(nil)
