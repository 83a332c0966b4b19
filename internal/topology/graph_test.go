package topology

import (
	"fmt"
	"testing"
)

// Graph is a plain adjacency-list view of a topology, the test suite's
// reference for shortest paths: the analytic HopCount of every topology
// and the package's own Adjacency.BFS are validated against BFS
// distances on this graph.
type Graph struct {
	n   int
	adj [][]int
}

// NewGraph builds an adjacency list over n vertices from a link list.
func NewGraph(n int, links []Link) (*Graph, error) {
	g := &Graph{n: n, adj: make([][]int, n)}
	for i, l := range links {
		if l.A < 0 || l.A >= n || l.B < 0 || l.B >= n {
			return nil, fmt.Errorf("topology: link %d (%d-%d) out of range [0,%d)", i, l.A, l.B, n)
		}
		if l.A == l.B {
			return nil, fmt.Errorf("topology: link %d is a self loop at %d", i, l.A)
		}
		g.adj[l.A] = append(g.adj[l.A], l.B)
		g.adj[l.B] = append(g.adj[l.B], l.A)
	}
	return g, nil
}

// GraphOf builds the reference graph of a topology.
func GraphOf(t Topology) (*Graph, error) {
	return NewGraph(t.NumVertices(), t.Links())
}

// BFSFrom returns the distance (in hops) from src to every vertex;
// unreachable vertices get -1.
func (g *Graph) BFSFrom(src int) ([]int, error) {
	if src < 0 || src >= g.n {
		return nil, fmt.Errorf("topology: bfs source %d out of range [0,%d)", src, g.n)
	}
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int, 0, g.n)
	queue = append(queue, src)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[v] {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist, nil
}

// Connected reports whether every vertex is reachable from vertex 0.
func (g *Graph) Connected() (bool, error) {
	if g.n == 0 {
		return true, nil
	}
	dist, err := g.BFSFrom(0)
	if err != nil {
		return false, err
	}
	for _, d := range dist {
		if d == -1 {
			return false, nil
		}
	}
	return true, nil
}

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) (int, error) {
	if v < 0 || v >= g.n {
		return 0, fmt.Errorf("topology: vertex %d out of range [0,%d)", v, g.n)
	}
	return len(g.adj[v]), nil
}

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph(2, []Link{{A: 0, B: 2}}); err == nil {
		t.Fatal("out-of-range link accepted")
	}
	if _, err := NewGraph(2, []Link{{A: -1, B: 0}}); err == nil {
		t.Fatal("negative vertex accepted")
	}
	if _, err := NewGraph(2, []Link{{A: 1, B: 1}}); err == nil {
		t.Fatal("self loop accepted")
	}
}

func TestBFSPathDistances(t *testing.T) {
	// 0-1-2-3 chain plus 0-3 shortcut.
	g, err := NewGraph(4, []Link{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := g.BFSFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 1}
	for i := range want {
		if dist[i] != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want[i])
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g, err := NewGraph(3, []Link{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := g.BFSFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	if dist[2] != -1 {
		t.Fatalf("dist[2] = %d, want -1", dist[2])
	}
	ok, err := g.Connected()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestBFSSourceValidation(t *testing.T) {
	g, _ := NewGraph(2, nil)
	if _, err := g.BFSFrom(5); err == nil {
		t.Fatal("bad source accepted")
	}
	if _, err := g.BFSFrom(-1); err == nil {
		t.Fatal("negative source accepted")
	}
}

func TestGraphDegree(t *testing.T) {
	g, _ := NewGraph(3, []Link{{0, 1}, {0, 2}})
	if d, _ := g.Degree(0); d != 2 {
		t.Fatalf("degree(0) = %d", d)
	}
	if d, _ := g.Degree(1); d != 1 {
		t.Fatalf("degree(1) = %d", d)
	}
	if _, err := g.Degree(9); err == nil {
		t.Fatal("bad vertex accepted")
	}
}

func TestEmptyGraphConnected(t *testing.T) {
	g, err := NewGraph(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := g.Connected()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("empty graph should count as connected")
	}
}

func TestParallelLinksAllowed(t *testing.T) {
	// Fat trees use parallel links; the graph must accept them.
	g, err := NewGraph(2, []Link{{0, 1}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := g.Degree(0); d != 2 {
		t.Fatalf("degree with parallel links = %d, want 2", d)
	}
}

func TestLinkClassString(t *testing.T) {
	if ClassTerminal.String() != "terminal" || ClassLocal.String() != "local" || ClassGlobal.String() != "global" {
		t.Fatal("class names wrong")
	}
	if LinkClass(9).String() != "class(9)" {
		t.Fatal("unknown class string")
	}
}

// Distances past int16 fail instead of wrapping: a path of 2^15 + 1
// vertices puts its far end 32,768 hops away.
func TestAdjacencyBFSRefusesInt16Overflow(t *testing.T) {
	n := 1<<15 + 1
	adj := make(Adjacency, n)
	for v := 0; v+1 < n; v++ {
		adj[v] = append(adj[v], Edge{To: int32(v + 1), Link: int32(v)})
		adj[v+1] = append(adj[v+1], Edge{To: int32(v), Link: int32(v)})
	}
	dist := make([]int16, n)
	if _, err := adj.BFS(0, dist, nil); err == nil {
		t.Fatal("a 32,768-hop distance accepted")
	}
	if _, err := adj.BFS(n/2, dist, nil); err != nil {
		t.Fatalf("from the middle every distance fits: %v", err)
	}
}
