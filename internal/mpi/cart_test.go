package mpi

import (
	"reflect"
	"testing"
)

func mustCart(t *testing.T, n int, dims []int, periodic []bool) *Cart {
	t.Helper()
	w, err := World(n)
	if err != nil {
		t.Fatal(err)
	}
	c, err := CartCreate(w, dims, periodic)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCartCreateValidation(t *testing.T) {
	w, _ := World(12)
	cases := []struct {
		dims     []int
		periodic []bool
	}{
		{nil, nil},
		{[]int{3, 4}, []bool{true}},       // flag count mismatch
		{[]int{3, 5}, []bool{true, true}}, // volume mismatch
		{[]int{0, 12}, []bool{true, true}},
		{[]int{-3, -4}, []bool{true, true}},
	}
	for _, c := range cases {
		if _, err := CartCreate(w, c.dims, c.periodic); err == nil {
			t.Errorf("CartCreate(%v, %v) should fail", c.dims, c.periodic)
		}
	}
	if _, err := CartCreate(nil, []int{1}, []bool{false}); err == nil {
		t.Error("nil comm accepted")
	}
}

func TestCartCoordsRankRoundTrip(t *testing.T) {
	c := mustCart(t, 24, []int{2, 3, 4}, []bool{false, false, false})
	for r := 0; r < 24; r++ {
		coords, err := c.Coords(r)
		if err != nil {
			t.Fatal(err)
		}
		back, err := c.Rank(coords)
		if err != nil {
			t.Fatal(err)
		}
		if back != r {
			t.Fatalf("rank %d -> %v -> %d", r, coords, back)
		}
	}
	// MPI convention: last dimension fastest. Rank 1 = (0,0,1).
	coords, _ := c.Coords(1)
	if !reflect.DeepEqual(coords, []int{0, 0, 1}) {
		t.Fatalf("Coords(1) = %v", coords)
	}
	if _, err := c.Coords(24); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if _, err := c.Rank([]int{0, 0}); err == nil {
		t.Fatal("wrong coord count accepted")
	}
}

func TestCartRankPeriodicity(t *testing.T) {
	c := mustCart(t, 12, []int{3, 4}, []bool{true, false})
	// Periodic dim wraps.
	r, err := c.Rank([]int{-1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := c.Rank([]int{2, 2})
	if r != want {
		t.Fatalf("periodic wrap = %d, want %d", r, want)
	}
	// Non-periodic dim errors.
	if _, err := c.Rank([]int{0, 4}); err == nil {
		t.Fatal("out-of-range non-periodic coord accepted")
	}
}

func TestCartSubRowsAndColumns(t *testing.T) {
	// 3x4 grid on ranks 0..11: row communicators keep dim 1, column
	// communicators keep dim 0.
	c := mustCart(t, 12, []int{3, 4}, []bool{false, false})
	row, err := c.Sub(5, []bool{false, true}) // rank 5 = (1,1): row 1
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(row.Comm().Ranks(), []int{4, 5, 6, 7}) {
		t.Fatalf("row ranks = %v", row.Comm().Ranks())
	}
	if !reflect.DeepEqual(row.Dims(), []int{4}) {
		t.Fatalf("row dims = %v", row.Dims())
	}
	col, err := c.Sub(5, []bool{true, false}) // column 1
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(col.Comm().Ranks(), []int{1, 5, 9}) {
		t.Fatalf("col ranks = %v", col.Comm().Ranks())
	}
}

func TestCartSubValidation(t *testing.T) {
	c := mustCart(t, 12, []int{3, 4}, []bool{false, false})
	if _, err := c.Sub(0, []bool{true}); err == nil {
		t.Fatal("wrong keep length accepted")
	}
	if _, err := c.Sub(0, []bool{false, false}); err == nil {
		t.Fatal("empty keep accepted")
	}
	if _, err := c.Sub(99, []bool{true, false}); err == nil {
		t.Fatal("bad rank accepted")
	}
}

func TestCartSubOnSubsetCommunicator(t *testing.T) {
	// A cart over a non-identity communicator translates to the global
	// ranks of that communicator.
	sub, err := NewComm([]int{10, 11, 12, 13, 14, 15})
	if err != nil {
		t.Fatal(err)
	}
	c, err := CartCreate(sub, []int{2, 3}, []bool{false, false})
	if err != nil {
		t.Fatal(err)
	}
	row, err := c.Sub(0, []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(row.Comm().Ranks(), []int{10, 11, 12}) {
		t.Fatalf("row globals = %v", row.Comm().Ranks())
	}
}

func TestCartDimsIsCopy(t *testing.T) {
	c := mustCart(t, 6, []int{2, 3}, []bool{false, false})
	d := c.Dims()
	d[0] = 99
	if c.Dims()[0] != 2 {
		t.Fatal("Dims aliases internal slice")
	}
}
