package mpi

import "fmt"

// Cart models an MPI cartesian communicator (MPI_Cart_create): a
// communicator whose ranks are arranged on an n-dimensional grid with
// optional per-dimension periodicity. The paper had to exclude traces
// using cartesian communicators because dumpi records no communicator
// geometry; this implementation closes that gap for synthetic or
// richer-format traces, including the row/column sub-communicators
// (MPI_Cart_sub) that pencil-decomposed FFTs communicate on.
type Cart struct {
	comm     *Comm
	dims     []int
	periodic []bool
}

// CartCreate arranges the communicator's ranks on a grid. The product of
// dims must equal the communicator size; ranks are assigned row-major with
// the last dimension varying fastest (the MPI convention).
func CartCreate(comm *Comm, dims []int, periodic []bool) (*Cart, error) {
	if comm == nil {
		return nil, fmt.Errorf("mpi: nil communicator")
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("mpi: empty dimension list")
	}
	if len(periodic) != len(dims) {
		return nil, fmt.Errorf("mpi: %d dims but %d periodicity flags", len(dims), len(periodic))
	}
	vol := 1
	for i, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("mpi: non-positive dimension %d at index %d", d, i)
		}
		vol *= d
	}
	if vol != comm.Size() {
		return nil, fmt.Errorf("mpi: grid volume %d != communicator size %d", vol, comm.Size())
	}
	return &Cart{
		comm:     comm,
		dims:     append([]int(nil), dims...),
		periodic: append([]bool(nil), periodic...),
	}, nil
}

// Comm returns the underlying communicator.
func (c *Cart) Comm() *Comm { return c.comm }

// Dims returns a copy of the grid dimensions.
func (c *Cart) Dims() []int { return append([]int(nil), c.dims...) }

// Coords returns the grid coordinates of a communicator rank
// (MPI_Cart_coords).
func (c *Cart) Coords(commRank int) ([]int, error) {
	if commRank < 0 || commRank >= c.comm.Size() {
		return nil, fmt.Errorf("mpi: comm rank %d out of range [0,%d)", commRank, c.comm.Size())
	}
	coords := make([]int, len(c.dims))
	rem := commRank
	for i := len(c.dims) - 1; i >= 0; i-- {
		coords[i] = rem % c.dims[i]
		rem /= c.dims[i]
	}
	return coords, nil
}

// Rank returns the communicator rank at the given coordinates
// (MPI_Cart_rank). Out-of-range coordinates in periodic dimensions wrap;
// in non-periodic dimensions they are an error.
func (c *Cart) Rank(coords []int) (int, error) {
	if len(coords) != len(c.dims) {
		return 0, fmt.Errorf("mpi: %d coords for %d dims", len(coords), len(c.dims))
	}
	rank := 0
	for i, v := range coords {
		d := c.dims[i]
		if v < 0 || v >= d {
			if !c.periodic[i] {
				return 0, fmt.Errorf("mpi: coordinate %d out of range [0,%d) in non-periodic dim %d", v, d, i)
			}
			v = ((v % d) + d) % d
		}
		rank = rank*d + v
	}
	return rank, nil
}

// Sub builds the sub-communicator containing commRank and every rank that
// shares its coordinates in the dropped dimensions (MPI_Cart_sub with
// keep[i] selecting the dimensions that remain). The result's ranks are
// ordered by their coordinates in the kept dimensions.
func (c *Cart) Sub(commRank int, keep []bool) (*Cart, error) {
	if len(keep) != len(c.dims) {
		return nil, fmt.Errorf("mpi: %d keep flags for %d dims", len(keep), len(c.dims))
	}
	base, err := c.Coords(commRank)
	if err != nil {
		return nil, err
	}
	var subDims []int
	var subPeriodic []bool
	for i, k := range keep {
		if k {
			subDims = append(subDims, c.dims[i])
			subPeriodic = append(subPeriodic, c.periodic[i])
		}
	}
	if len(subDims) == 0 {
		return nil, fmt.Errorf("mpi: sub-communicator must keep at least one dimension")
	}
	// Enumerate the kept-coordinate space in row-major order.
	vol := 1
	for _, d := range subDims {
		vol *= d
	}
	globals := make([]int, 0, vol)
	coords := append([]int(nil), base...)
	var walk func(kd int) error
	walk = func(kd int) error {
		if kd == len(subDims) {
			cr, err := c.Rank(coords)
			if err != nil {
				return err
			}
			g, err := c.comm.Global(cr)
			if err != nil {
				return err
			}
			globals = append(globals, g)
			return nil
		}
		// Find the kd-th kept dimension.
		idx, seen := -1, 0
		for i, k := range keep {
			if k {
				if seen == kd {
					idx = i
					break
				}
				seen++
			}
		}
		for v := 0; v < c.dims[idx]; v++ {
			coords[idx] = v
			if err := walk(kd + 1); err != nil {
				return err
			}
		}
		coords[idx] = base[idx]
		return nil
	}
	if err := walk(0); err != nil {
		return nil, err
	}
	subComm, err := NewComm(globals)
	if err != nil {
		return nil, err
	}
	return &Cart{comm: subComm, dims: subDims, periodic: subPeriodic}, nil
}
