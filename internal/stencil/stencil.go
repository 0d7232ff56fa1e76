// Package stencil encodes the stencil dependency tables of the paper
// (Tables 1, 2 and 3): for every term of the adaptation, advection and
// smoothing processes, the set of neighbor offsets its update reads in each
// direction. The communication layer derives halo depths from these tables,
// and the operator tests verify by point-perturbation probing that the
// implemented kernels stay inside the declared footprints (the property that
// makes the deep-halo scheme safe).
package stencil

// Term is one row of a dependency table: the named term reads, for the
// update of point (i, j, k), the offsets listed per direction (0 denotes i,
// +1 denotes i+1, …). The footprint is the Cartesian product X×Y×Z, which
// over-approximates the true dependency set exactly the way the paper's
// tables do.
type Term struct {
	Name string
	X    []int
	Y    []int
	Z    []int
}

// Table 1: stencil computation in the adaptation process (function Â).
var Adaptation = []Term{
	{Name: "P_lambda(1)", X: []int{0, 1, -1, -2}, Y: []int{0}, Z: []int{0, 1}},
	{Name: "P_lambda(2)", X: []int{0, 1, -1, -2}, Y: []int{0}, Z: []int{0}},
	{Name: "f*V", X: []int{0, -1}, Y: []int{0, -1}, Z: []int{0}},
	{Name: "P_theta(1)", X: []int{0}, Y: []int{0, 1}, Z: []int{0, 1}},
	{Name: "P_theta(2)", X: []int{0}, Y: []int{0, 1}, Z: []int{0}},
	{Name: "f*U", X: []int{0, 1}, Y: []int{0, 1}, Z: []int{0}},
	{Name: "Omega(1)", X: []int{0}, Y: []int{0}, Z: []int{0, 1}},
	{Name: "Omega_theta(2)", X: []int{0}, Y: []int{0, 1, -1}, Z: []int{0}},
	{Name: "Omega_lambda(2)", X: []int{0, 1, -1, -2, 3, -3}, Y: []int{0}, Z: []int{0}},
	{Name: "D(P)", X: []int{0, -1, 2, 3, -3}, Y: []int{0, -1}, Z: []int{0}},
	{Name: "D_sa", X: []int{0, 1, -1}, Y: []int{0, 1, -1}, Z: []int{0}},
}

// Table 2: stencil computation in the advection process (function L̃).
var Advection = []Term{
	{Name: "L1(U)", X: []int{0, 1, -1, 2, -2, 3, -3}, Y: []int{0}, Z: []int{0, 1}},
	{Name: "L2(U)", X: []int{0, -1}, Y: []int{0, 1, -1}, Z: []int{0}},
	{Name: "L3(U)", X: []int{0, -1}, Y: []int{0}, Z: []int{0, 1, -1}},
	{Name: "L1(V)", X: []int{0, 1, -1, 2, 3, -3}, Y: []int{0, 1}, Z: []int{0}},
	{Name: "L2(V)", X: []int{0}, Y: []int{0, 1, -1}, Z: []int{0}},
	{Name: "L3(V)", X: []int{0}, Y: []int{0, 1}, Z: []int{0, 1, -1}},
	{Name: "L1(Phi)", X: []int{0, 1, -1, 2, 3, -3}, Y: []int{0}, Z: []int{0}},
	{Name: "L2(Phi)", X: []int{0}, Y: []int{0, 1, -1}, Z: []int{0}},
	{Name: "L3(Phi)", X: []int{0}, Y: []int{0}, Z: []int{0, 1, -1}},
}

// Table 3: stencil computation in the smoothing S̃ (the fourth-difference
// operators δ⁴_λ, δ⁴_θ).
var Smoothing = []Term{
	{Name: "P1", X: []int{0, 1, -1, 2, -2}, Y: []int{0}, Z: []int{0}},
	{Name: "P2", X: []int{0, 1, -1, 2, -2}, Y: []int{0, 1, -1, 2, -2}, Z: []int{0}},
}

// Radius holds the maximum |offset| per direction of a set of terms; it is
// the halo depth one update of the process requires.
type Radius struct {
	X, Y, Z int
}

// RadiusOf computes the per-direction radius of a table.
func RadiusOf(terms []Term) Radius {
	var r Radius
	for _, t := range terms {
		for _, o := range t.X {
			r.X = maxAbs(r.X, o)
		}
		for _, o := range t.Y {
			r.Y = maxAbs(r.Y, o)
		}
		for _, o := range t.Z {
			r.Z = maxAbs(r.Z, o)
		}
	}
	return r
}

// ReadRadius returns the deepest offset, per direction, that any kernel
// reads from a point it updates: the union of Tables 1–3. It is the
// baseline halo width, and the number of ghost layers past a pole or the
// model top/bottom that the local mirror fills must keep current — compute
// regions never leave the global domain, so no stencil reaches further.
func ReadRadius() Radius {
	return Union(RadiusOf(Adaptation), RadiusOf(Advection), RadiusOf(Smoothing))
}

// Union returns the pointwise maximum of radii.
//
//cadyvet:allocfree
func Union(rs ...Radius) Radius {
	var u Radius
	for _, r := range rs {
		if r.X > u.X {
			u.X = r.X
		}
		if r.Y > u.Y {
			u.Y = r.Y
		}
		if r.Z > u.Z {
			u.Z = r.Z
		}
	}
	return u
}

// Scale multiplies every component by n: the halo depth needed for n
// back-to-back updates without communication (Section 4.3.1's 3M layers).
//
//cadyvet:allocfree
func (r Radius) Scale(n int) Radius {
	return Radius{X: r.X * n, Y: r.Y * n, Z: r.Z * n}
}

// Add sums two radii componentwise (e.g. adaptation depth + fused smoothing
// depth in Algorithm 2).
//
//cadyvet:allocfree
func (r Radius) Add(o Radius) Radius {
	return Radius{X: r.X + o.X, Y: r.Y + o.Y, Z: r.Z + o.Z}
}

func maxAbs(cur, o int) int {
	if o < 0 {
		o = -o
	}
	if o > cur {
		return o
	}
	return cur
}

// Contains reports whether offset (dx, dy, dz) lies inside the Cartesian
// footprint of any term in the table.
//
//cadyvet:allocfree
func Contains(terms []Term, dx, dy, dz int) bool {
	for _, t := range terms {
		if containsInt(t.X, dx) && containsInt(t.Y, dy) && containsInt(t.Z, dz) {
			return true
		}
	}
	return false
}

// BoxContains reports whether (dx, dy, dz) lies inside the bounding box of
// the table's radius — the criterion halo sizing actually relies on.
//
//cadyvet:allocfree
func BoxContains(terms []Term, dx, dy, dz int) bool {
	r := RadiusOf(terms)
	return abs(dx) <= r.X && abs(dy) <= r.Y && abs(dz) <= r.Z
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
