package topology

// Cost summarizes the hardware one topology instance consumes: how many
// switch chips, how many cables, and how many switch ports those cables
// occupy. It is the cost proxy the design optimizer ranks candidates by
// (Solnushkin's automated fat-tree design frames the search exactly this
// way: minimize equipment for a required node count), and /v1/topologies
// and cmd/topostat report the same numbers so every surface shares one
// cost model.
type Cost struct {
	// Switches is the number of switch chips. Direct networks with
	// node-integrated routers (torus, mesh) count one router per node.
	Switches int `json:"switches"`
	// Links is the number of cables, straight from Links().
	Links int `json:"links"`
	// Ports is the number of switch-side port attachments: each link
	// consumes one port per switch endpoint, and integrated routers
	// additionally spend one injection port per hosted node.
	Ports int `json:"ports"`
}

// Units collapses the cost into a single comparable scalar. Switch chips
// dominate interconnect cost, cables come second, and ports are already
// implied by the first two, so they enter with a small weight that breaks
// ties between equal switch/link counts.
func (c Cost) Units() float64 {
	return float64(c.Switches) + 0.25*float64(c.Links) + 0.05*float64(c.Ports)
}

// CostOf returns the hardware cost of a topology, derived from its graph
// alone. Indirect networks place switches at vertices beyond the node
// space; direct networks (vertex space == node space) integrate one
// router per node, where every link endpoint lands on a router and each
// node adds one injection port.
func CostOf(t Topology) Cost {
	switches := t.NumVertices() - t.Nodes()
	integrated := switches == 0
	c := Cost{Links: len(t.Links())}
	if integrated {
		c.Switches = t.Nodes()
		c.Ports = 2*c.Links + t.Nodes()
		return c
	}
	c.Switches = switches
	for _, l := range t.Links() {
		if l.A >= t.Nodes() {
			c.Ports++
		}
		if l.B >= t.Nodes() {
			c.Ports++
		}
	}
	return c
}
