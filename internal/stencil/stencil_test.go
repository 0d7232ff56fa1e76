package stencil

import "testing"

func TestTableRadii(t *testing.T) {
	// The radii the paper's tables imply, which size every halo.
	if r := RadiusOf(Adaptation); r != (Radius{X: 3, Y: 1, Z: 1}) {
		t.Errorf("adaptation radius = %+v, want {3 1 1}", r)
	}
	if r := RadiusOf(Advection); r != (Radius{X: 3, Y: 1, Z: 1}) {
		t.Errorf("advection radius = %+v, want {3 1 1}", r)
	}
	if r := RadiusOf(Smoothing); r != (Radius{X: 2, Y: 2, Z: 0}) {
		t.Errorf("smoothing radius = %+v, want {2 2 0}", r)
	}
}

func TestTableShapes(t *testing.T) {
	if len(Adaptation) != 11 {
		t.Errorf("Table 1 has %d terms, want 11", len(Adaptation))
	}
	if len(Advection) != 9 {
		t.Errorf("Table 2 has %d terms, want 9", len(Advection))
	}
	if len(Smoothing) != 2 {
		t.Errorf("Table 3 has %d terms, want 2", len(Smoothing))
	}
	for _, tbl := range [][]Term{Adaptation, Advection, Smoothing} {
		for _, term := range tbl {
			if len(term.X) == 0 || len(term.Y) == 0 || len(term.Z) == 0 {
				t.Errorf("term %q has an empty direction", term.Name)
			}
			// Every term must include the center point in each direction.
			if !containsInt(term.X, 0) || !containsInt(term.Y, 0) || !containsInt(term.Z, 0) {
				t.Errorf("term %q does not read its own point", term.Name)
			}
		}
	}
}

func TestUnionAndScale(t *testing.T) {
	u := Union(Radius{X: 1, Y: 2, Z: 0}, Radius{X: 3, Y: 0, Z: 1})
	if u != (Radius{X: 3, Y: 2, Z: 1}) {
		t.Errorf("union = %+v", u)
	}
	if s := u.Scale(3); s != (Radius{X: 9, Y: 6, Z: 3}) {
		t.Errorf("scale = %+v", s)
	}
	if a := u.Add(Radius{X: 1, Y: 1, Z: 1}); a != (Radius{X: 4, Y: 3, Z: 2}) {
		t.Errorf("add = %+v", a)
	}
}

func TestContains(t *testing.T) {
	if !Contains(Adaptation, -3, 0, 0) { // Ω_λ⁽²⁾ reads i−3
		t.Error("adaptation should contain (−3,0,0)")
	}
	if Contains(Adaptation, 0, 2, 0) {
		t.Error("adaptation should not contain (0,2,0)")
	}
	if !Contains(Smoothing, 2, 2, 0) {
		t.Error("smoothing should contain (2,2,0)")
	}
	if Contains(Smoothing, 0, 0, 1) {
		t.Error("smoothing should not touch z")
	}
}

func TestBoxContains(t *testing.T) {
	if !BoxContains(Advection, 3, 1, 1) {
		t.Error("advection box must contain its corner")
	}
	if BoxContains(Advection, 4, 0, 0) || BoxContains(Advection, 0, 2, 0) || BoxContains(Advection, 0, 0, 2) {
		t.Error("advection box too large")
	}
}

func TestDeepHaloArithmetic(t *testing.T) {
	// Section 4.3.1: one exchange must cover 3M stencil updates; with the
	// y/z radii of 1 this is 3M layers, plus 2 smoothing layers in y
	// (Section 4.3.2).
	const m = 3
	r := Union(RadiusOf(Adaptation), RadiusOf(Advection))
	deep := r.Scale(3 * m).Add(Radius{Y: RadiusOf(Smoothing).Y})
	if deep.Y != 11 || deep.Z != 9 {
		t.Errorf("deep halo for M=3: %+v, want Y=11 Z=9", deep)
	}
}

func TestReadRadius(t *testing.T) {
	if r := ReadRadius(); r != (Radius{X: 3, Y: 2, Z: 1}) {
		t.Errorf("read radius = %+v, want {3 2 1}", r)
	}
}
