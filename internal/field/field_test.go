package field

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testBlock() Block {
	return Block{
		Nx: 12, Ny: 8, Nz: 4,
		I0: 0, I1: 12, J0: 2, J1: 6, K0: 1, K1: 3,
		Hx: 2, Hy: 2, Hz: 1,
	}
}

func TestBlockDims(t *testing.T) {
	b := testBlock()
	nx, ny, nz := b.Dims()
	if nx != 12 || ny != 4 || nz != 2 {
		t.Errorf("dims = %d %d %d", nx, ny, nz)
	}
	sx, sy, sz := b.StorageDims()
	if sx != 16 || sy != 8 || sz != 4 {
		t.Errorf("storage = %d %d %d", sx, sy, sz)
	}
	if !b.OwnsFullX() {
		t.Error("block owns all longitudes")
	}
}

func TestBlockValidate(t *testing.T) {
	bads := []Block{
		{Nx: 12, Ny: 8, Nz: 4, I0: 0, I1: 0, J0: 0, J1: 8, K0: 0, K1: 4},    // empty x
		{Nx: 12, Ny: 8, Nz: 4, I0: 0, I1: 12, J0: 0, J1: 9, K0: 0, K1: 4},   // y overflow
		{Nx: 12, Ny: 8, Nz: 4, I0: 0, I1: 12, J0: 0, J1: 8, K0: -1, K1: 4},  // z underflow
		{Nx: 12, Ny: 8, Nz: 4, I0: 0, I1: 12, J0: 0, J1: 8, K0: 0, K1: 4, Hx: -1}, // bad halo
	}
	for i, b := range bads {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			b.Validate()
		}()
	}
}

func TestRectOps(t *testing.T) {
	r := Rect{I0: 0, I1: 4, J0: 0, J1: 3, K0: 0, K1: 2}
	if r.Count() != 24 {
		t.Errorf("count = %d", r.Count())
	}
	if r.Empty() {
		t.Error("not empty")
	}
	inter := r.Intersect(Rect{I0: 2, I1: 10, J0: 1, J1: 2, K0: 0, K1: 5})
	if inter != (Rect{I0: 2, I1: 4, J0: 1, J1: 2, K0: 0, K1: 2}) {
		t.Errorf("intersect = %+v", inter)
	}
	if !r.Intersect(Rect{I0: 5, I1: 6, J0: 0, J1: 3, K0: 0, K1: 2}).Empty() {
		t.Error("disjoint intersect should be empty")
	}
	if !r.Contains(3, 2, 1) || r.Contains(4, 0, 0) {
		t.Error("contains wrong")
	}
	if s := r.Shrink(1, 1, 0); s != (Rect{I0: 1, I1: 3, J0: 1, J1: 2, K0: 0, K1: 2}) {
		t.Errorf("shrink = %+v", s)
	}
}

func TestF3IndexingAndHalo(t *testing.T) {
	f := NewF3(testBlock())
	f.Set(0, 2, 1, 42)    // owned corner
	f.Set(-2, 0, 0, 7)    // halo corner (lowest storage point)
	f.Set(13, 7, 3, 9)    // halo high corner
	if f.At(0, 2, 1) != 42 || f.At(-2, 0, 0) != 7 || f.At(13, 7, 3) != 9 {
		t.Error("roundtrip failed")
	}
	f.Add(0, 2, 1, 1)
	if f.At(0, 2, 1) != 43 {
		t.Error("Add failed")
	}
}

func TestF3OutOfBoundsPanics(t *testing.T) {
	f := NewF3(testBlock())
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f.At(0, 8, 1) // beyond the y halo (6+2 = 8 exclusive)
}

func TestF3PackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := NewF3(testBlock())
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	r := Rect{I0: 2, I1: 7, J0: 3, J1: 6, K0: 1, K1: 3}
	buf := make([]float64, r.Count())
	n := f.Pack(r, buf)
	if n != r.Count() {
		t.Fatalf("packed %d, want %d", n, r.Count())
	}
	g := NewF3(testBlock())
	g.Unpack(r, buf)
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			for i := r.I0; i < r.I1; i++ {
				if g.At(i, j, k) != f.At(i, j, k) {
					t.Fatalf("mismatch at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

func TestPackUnpackProperty(t *testing.T) {
	// Property: Unpack(Pack(rect)) restores exactly the rect, for random
	// rects inside the storage region.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := testBlock()
		src := NewF3(b)
		for i := range src.Data {
			src.Data[i] = rng.NormFloat64()
		}
		w := b.WithHalo()
		i0 := w.I0 + rng.Intn(4)
		j0 := w.J0 + rng.Intn(3)
		k0 := w.K0 + rng.Intn(2)
		r := Rect{I0: i0, I1: i0 + 1 + rng.Intn(w.I1-i0), J0: j0, J1: j0 + 1 + rng.Intn(w.J1-j0),
			K0: k0, K1: k0 + 1 + rng.Intn(w.K1-k0)}
		buf := make([]float64, r.Count())
		src.Pack(r, buf)
		dst := NewF3(b)
		dst.Unpack(r, buf)
		for k := r.K0; k < r.K1; k++ {
			for j := r.J0; j < r.J1; j++ {
				for i := r.I0; i < r.I1; i++ {
					if dst.At(i, j, k) != src.At(i, j, k) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFillXPeriodic(t *testing.T) {
	f := NewF3(testBlock())
	for j := 0; j < 8; j++ {
		for k := 0; k < 4; k++ {
			for i := 0; i < 12; i++ {
				f.Set(i, j, k, float64(100*i+10*j+k))
			}
		}
	}
	f.FillXPeriodic()
	for j := 0; j < 8; j++ {
		for k := 0; k < 4; k++ {
			if f.At(-1, j, k) != f.At(11, j, k) || f.At(-2, j, k) != f.At(10, j, k) {
				t.Fatalf("left halo wrong at j=%d k=%d", j, k)
			}
			if f.At(12, j, k) != f.At(0, j, k) || f.At(13, j, k) != f.At(1, j, k) {
				t.Fatalf("right halo wrong at j=%d k=%d", j, k)
			}
		}
	}
}

func TestFillXPeriodicPanicsOnPartialX(t *testing.T) {
	b := testBlock()
	b.I1 = 6 // partial circle
	f := NewF3(b)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f.FillXPeriodic()
}

func TestLinearOps(t *testing.T) {
	b := testBlock()
	x, y, d := NewF3(b), NewF3(b), NewF3(b)
	rng := rand.New(rand.NewSource(2))
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
		y.Data[i] = rng.NormFloat64()
	}
	Lin2(d, 2, x, 3, y)
	for i := range d.Data {
		if d.Data[i] != 2*x.Data[i]+3*y.Data[i] {
			t.Fatal("Lin2 wrong")
		}
	}
	z := x.Clone()
	Axpy(z, -2, y)
	for i := range z.Data {
		want := x.Data[i] - 2*y.Data[i]
		if z.Data[i] != want {
			t.Fatal("Axpy wrong")
		}
	}
	Mean2(d, x, y)
	for i := range d.Data {
		if d.Data[i] != 0.5*x.Data[i]+0.5*y.Data[i] {
			t.Fatal("Mean2 wrong")
		}
	}
	Scale(z, 0)
	if SumOwned(z) != 0 {
		t.Error("Scale(0) should zero")
	}
}

func TestOwnedReductions(t *testing.T) {
	b := testBlock()
	f := NewF3(b)
	// Poison the halos; owned reductions must ignore them.
	for i := range f.Data {
		f.Data[i] = 1e9
	}
	r := b.Owned()
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			for i := r.I0; i < r.I1; i++ {
				f.Set(i, j, k, 1)
			}
		}
	}
	if s := SumOwned(f); s != float64(r.Count()) {
		t.Errorf("SumOwned = %v, want %v", s, r.Count())
	}
	if m := MaxAbsOwned(f); m != 1 {
		t.Errorf("MaxAbsOwned = %v", m)
	}
	g := f.Clone()
	g.Set(3, 4, 2, -5)
	if d := MaxAbsDiffOwned(f, g); d != 6 {
		t.Errorf("MaxAbsDiffOwned = %v, want 6", d)
	}
}

func TestAllFiniteOwned(t *testing.T) {
	f := NewF3(testBlock())
	// NaN in the halo is fine.
	f.Set(-1, 0, 0, nan())
	if !AllFiniteOwned(f) {
		t.Error("halo NaN should not fail the owned check")
	}
	f.Set(5, 3, 2, nan())
	if AllFiniteOwned(f) {
		t.Error("owned NaN must fail")
	}
}

func nan() float64 { z := 0.0; return z / z }

func TestPoleMirrorCenterEven(t *testing.T) {
	b := Block{Nx: 8, Ny: 6, Nz: 2, I0: 0, I1: 8, J0: 0, J1: 6, K0: 0, K1: 2, Hx: 0, Hy: 2, Hz: 0}
	f := NewF3(b)
	for j := 0; j < 6; j++ {
		for i := 0; i < 8; i++ {
			f.Set(i, j, 0, float64(10+j))
		}
	}
	FillPolesY(f, Even, CenterY, b.Hy)
	if f.At(0, -1, 0) != 10 || f.At(0, -2, 0) != 11 {
		t.Errorf("north mirror: %v %v", f.At(0, -1, 0), f.At(0, -2, 0))
	}
	if f.At(0, 6, 0) != 15 || f.At(0, 7, 0) != 14 {
		t.Errorf("south mirror: %v %v", f.At(0, 6, 0), f.At(0, 7, 0))
	}
}

func TestPoleMirrorCenterOdd(t *testing.T) {
	b := Block{Nx: 8, Ny: 6, Nz: 2, I0: 0, I1: 8, J0: 0, J1: 6, K0: 0, K1: 2, Hx: 0, Hy: 1, Hz: 0}
	f := NewF3(b)
	for j := 0; j < 6; j++ {
		f.Set(3, j, 1, float64(1+j))
	}
	FillPolesY(f, Odd, CenterY, b.Hy)
	if f.At(3, -1, 1) != -1 {
		t.Errorf("odd north mirror: %v", f.At(3, -1, 1))
	}
	if f.At(3, 6, 1) != -6 {
		t.Errorf("odd south mirror: %v", f.At(3, 6, 1))
	}
}

func TestPoleMirrorFaceY(t *testing.T) {
	b := Block{Nx: 8, Ny: 6, Nz: 2, I0: 0, I1: 8, J0: 0, J1: 6, K0: 0, K1: 2, Hx: 0, Hy: 2, Hz: 0}
	f := NewF3(b)
	for j := 0; j < 6; j++ {
		for i := 0; i < 8; i++ {
			f.Set(i, j, 0, float64(1+j))
		}
	}
	FillPolesY(f, Odd, FaceY, b.Hy)
	// Row 0 is the pole itself: forced to zero.
	if f.At(2, 0, 0) != 0 {
		t.Errorf("pole row not zeroed: %v", f.At(2, 0, 0))
	}
	// Ghost rows mirror with the sign flip about the pole point.
	if f.At(2, -1, 0) != -f.At(2, 1, 0) || f.At(2, -2, 0) != -f.At(2, 2, 0) {
		t.Errorf("north face mirror wrong: %v %v", f.At(2, -1, 0), f.At(2, -2, 0))
	}
	// Virtual south pole row Ny is zeroed; beyond mirrors row Ny−1.
	if f.At(2, 6, 0) != 0 {
		t.Errorf("south pole row not zeroed: %v", f.At(2, 6, 0))
	}
	if f.At(2, 7, 0) != -f.At(2, 5, 0) {
		t.Errorf("south face mirror wrong: %v", f.At(2, 7, 0))
	}
}

func TestPoleMirrorDeepHaloFromInteriorBlock(t *testing.T) {
	// A block that does not own pole rows but whose deep halo extends past
	// the pole: the mirror must still fill the beyond-pole ghosts.
	b := Block{Nx: 8, Ny: 12, Nz: 2, I0: 0, I1: 8, J0: 3, J1: 6, K0: 0, K1: 2, Hx: 0, Hy: 5, Hz: 0}
	f := NewF3(b)
	for j := -2; j < 11; j++ { // storage rows; domain rows carry j+1
		for i := 0; i < 8; i++ {
			v := float64(j + 100)
			if j >= 0 {
				v = float64(j + 1)
			}
			f.Set(i, j, 0, v)
		}
	}
	// Overwrite domain rows with known values: row j holds j+1.
	for j := 0; j < 8; j++ {
		for i := 0; i < 8; i++ {
			f.Set(i, j, 0, float64(j+1))
		}
	}
	FillPolesY(f, Even, CenterY, b.Hy)
	if f.At(0, -1, 0) != 1 || f.At(0, -2, 0) != 2 {
		t.Errorf("deep-halo pole mirror: %v %v", f.At(0, -1, 0), f.At(0, -2, 0))
	}
}

func TestFillVerticalZ(t *testing.T) {
	b := Block{Nx: 8, Ny: 4, Nz: 4, I0: 0, I1: 8, J0: 0, J1: 4, K0: 0, K1: 4, Hx: 0, Hy: 0, Hz: 2}
	f := NewF3(b)
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			for i := 0; i < 8; i++ {
				f.Set(i, j, k, float64(k + 1))
			}
		}
	}
	FillVerticalZ(f, b.Hz)
	if f.At(0, 0, -1) != 1 || f.At(0, 0, -2) != 2 {
		t.Errorf("top mirror: %v %v", f.At(0, 0, -1), f.At(0, 0, -2))
	}
	if f.At(0, 0, 4) != 4 || f.At(0, 0, 5) != 3 {
		t.Errorf("bottom mirror: %v %v", f.At(0, 0, 4), f.At(0, 0, 5))
	}
}

func TestF2Basics(t *testing.T) {
	f := NewF2(testBlock())
	f.Set(3, 4, 5)
	f.Add(3, 4, 1)
	if f.At(3, 4) != 6 {
		t.Error("F2 set/add failed")
	}
	f.Set(-2, 0, 9) // halo
	if f.At(-2, 0) != 9 {
		t.Error("F2 halo access failed")
	}
	g := f.Clone()
	if MaxAbsDiffOwned2(f, g) != 0 {
		t.Error("clone differs")
	}
	r := Rect{I0: 1, I1: 5, J0: 2, J1: 5}
	buf := make([]float64, r.Flat2D().Count())
	f.Pack(r, buf)
	h := NewF2(testBlock())
	h.Unpack(r, buf)
	if h.At(3, 4) != 6 {
		t.Error("F2 pack/unpack failed")
	}
}

func TestF2FillXPeriodicAndPoles(t *testing.T) {
	b := Block{Nx: 8, Ny: 6, Nz: 2, I0: 0, I1: 8, J0: 0, J1: 6, K0: 0, K1: 2, Hx: 2, Hy: 2, Hz: 0}
	f := NewF2(b)
	for j := 0; j < 6; j++ {
		for i := 0; i < 8; i++ {
			f.Set(i, j, float64(i+10*j))
		}
	}
	f.FillXPeriodic()
	if f.At(-1, 3) != f.At(7, 3) || f.At(8, 3) != f.At(0, 3) {
		t.Error("F2 periodic fill wrong")
	}
	FillPolesY2(f, Even, b.Hy)
	if f.At(2, -1) != f.At(2, 0) || f.At(2, 6) != f.At(2, 5) {
		t.Error("F2 pole mirror wrong")
	}
}

func TestCopyRect(t *testing.T) {
	b := testBlock()
	src := NewF3(b)
	dst := NewF3(b)
	for i := range src.Data {
		src.Data[i] = float64(i)
	}
	r := Rect{I0: 3, I1: 6, J0: 3, J1: 5, K0: 1, K1: 3}
	dst.CopyRect(r, src)
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			for i := r.I0; i < r.I1; i++ {
				if dst.At(i, j, k) != src.At(i, j, k) {
					t.Fatal("CopyRect mismatch inside rect")
				}
			}
		}
	}
	if dst.At(0, 2, 1) != 0 {
		t.Error("CopyRect wrote outside rect")
	}
}

func TestShiftedPoleMirrorField(t *testing.T) {
	b := Block{Nx: 8, Ny: 6, Nz: 2, I0: 0, I1: 8, J0: 0, J1: 6, K0: 0, K1: 2, Hx: 2, Hy: 2, Hz: 0}
	f := NewF3(b)
	for j := 0; j < 6; j++ {
		for i := 0; i < 8; i++ {
			f.Set(i, j, 0, float64(10*j+i))
		}
	}
	FillPolesYShifted(f, Even, CenterY, b.Hy)
	// Ghost at (i, −1) must hold the value from (i+Nx/2 mod Nx, 0).
	for i := -2; i < 10; i++ { // including x halos of the ghost row
		want := f.At(((i+4)%8+8)%8, 0, 0)
		if got := f.At(i, -1, 0); got != want {
			t.Fatalf("north shifted ghost at i=%d: got %v want %v", i, got, want)
		}
	}
	// South side mirrors row 5 with the shift.
	if got, want := f.At(1, 6, 0), f.At(5, 5, 0); got != want {
		t.Errorf("south shifted ghost: got %v want %v", got, want)
	}
	// Odd parity flips sign.
	FillPolesYShifted(f, Odd, CenterY, b.Hy)
	if got, want := f.At(0, -1, 0), -f.At(4, 0, 0); got != want {
		t.Errorf("odd shifted ghost: got %v want %v", got, want)
	}
	// Requires full circles.
	part := b
	part.I1 = 4
	g2 := NewF3(part)
	defer func() {
		if recover() == nil {
			t.Error("partial-circle shifted mirror should panic")
		}
	}()
	FillPolesYShifted(g2, Even, CenterY, part.Hy)
}

// deepBlock owns the whole 8×6×4 mesh under halos deeper than any stencil
// reads, so every boundary has ghost layers past a mirror-depth cap.
func deepBlock() Block {
	return Block{Nx: 8, Ny: 6, Nz: 4, I0: 0, I1: 8, J0: 0, J1: 6, K0: 0, K1: 4, Hx: 2, Hy: 4, Hz: 3}
}

func randF3(b Block, seed int64) *F3 {
	f := NewF3(b)
	rng := rand.New(rand.NewSource(seed))
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	return f
}

func randF2(b Block, seed int64) *F2 {
	f := NewF2(b)
	rng := rand.New(rand.NewSource(seed))
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	return f
}

// TestMirrorDepthCapLeavesDeeperGhosts: a mirror capped at depth d writes
// exactly what the full-depth mirror writes within d layers of the
// boundary, and leaves every cell past the cap untouched.
func TestMirrorDepthCapLeavesDeeperGhosts(t *testing.T) {
	b := deepBlock()
	s := b.WithHalo()
	type fill3 struct {
		name string
		fn   func(f *F3, depth int)
		full int
		// within reports whether a stored (j, k) lies within depth of the
		// boundary the fill mirrors across.
		within func(j, k, depth int) bool
	}
	inY := func(j, _ int, d int) bool { return j >= -d && j < b.Ny+d }
	inZ := func(_, k int, d int) bool { return k >= -d && k < b.Nz+d }
	fills := []fill3{
		{"poles-center-even", func(f *F3, d int) { FillPolesY(f, Even, CenterY, d) }, b.Hy, inY},
		{"poles-face-odd", func(f *F3, d int) { FillPolesY(f, Odd, FaceY, d) }, b.Hy, inY},
		{"poles-shifted-center", func(f *F3, d int) { FillPolesYShifted(f, Odd, CenterY, d) }, b.Hy, inY},
		{"poles-shifted-face", func(f *F3, d int) { FillPolesYShifted(f, Odd, FaceY, d) }, b.Hy, inY},
		{"vertical", FillVerticalZ, b.Hz, inZ},
	}
	for _, fl := range fills {
		for d := 1; d <= fl.full; d++ {
			orig := randF3(b, int64(d))
			full, capped := orig.Clone(), orig.Clone()
			fl.fn(full, fl.full)
			fl.fn(capped, d)
			for k := s.K0; k < s.K1; k++ {
				for j := s.J0; j < s.J1; j++ {
					want := orig
					if fl.within(j, k, d) {
						want = full
					}
					for i := s.I0; i < s.I1; i++ {
						if capped.At(i, j, k) != want.At(i, j, k) {
							t.Fatalf("%s depth %d: cell (%d,%d,%d) = %v, want %v (within cap: %v)",
								fl.name, d, i, j, k, capped.At(i, j, k), want.At(i, j, k), fl.within(j, k, d))
						}
					}
				}
			}
		}
	}
	fills2 := map[string]func(f *F2, depth int){
		"poles2":         func(f *F2, d int) { FillPolesY2(f, Even, d) },
		"poles2-shifted": func(f *F2, d int) { FillPolesY2Shifted(f, Odd, d) },
	}
	for name, fn := range fills2 {
		for d := 1; d <= b.Hy; d++ {
			orig := randF2(b, int64(d))
			full, capped := orig.Clone(), orig.Clone()
			fn(full, b.Hy)
			fn(capped, d)
			for j := s.J0; j < s.J1; j++ {
				want := orig
				if inY(j, 0, d) {
					want = full
				}
				for i := s.I0; i < s.I1; i++ {
					if capped.At(i, j) != want.At(i, j) {
						t.Fatalf("%s depth %d: cell (%d,%d) = %v, want %v", name, d, i, j, capped.At(i, j), want.At(i, j))
					}
				}
			}
		}
	}
}

// TestFillXPeriodicRowsMatchesFullOnItsRows: the row-restricted wrap equals
// the whole-storage wrap on the rows of its rect (clipped to storage) and
// leaves every other row untouched.
func TestFillXPeriodicRowsMatchesFullOnItsRows(t *testing.T) {
	b := deepBlock()
	s := b.WithHalo()
	rects := []Rect{
		{I0: 0, I1: 8, J0: 1, J1: 4, K0: 0, K1: 2},
		{I0: 3, I1: 4, J0: -2, J1: 3, K0: -3, K1: 1}, // x extent is ignored
		{J0: -100, J1: 100, K0: -100, K1: 100},       // clipped to storage
		{J0: 2, J1: 2, K0: 0, K1: 4},                 // empty
	}
	for n, r := range rects {
		orig := randF3(b, int64(n))
		full, part := orig.Clone(), orig.Clone()
		full.FillXPeriodic()
		part.FillXPeriodicRows(r)
		for k := s.K0; k < s.K1; k++ {
			for j := s.J0; j < s.J1; j++ {
				want := orig
				if j >= r.J0 && j < r.J1 && k >= r.K0 && k < r.K1 {
					want = full
				}
				for i := s.I0; i < s.I1; i++ {
					if part.At(i, j, k) != want.At(i, j, k) {
						t.Fatalf("rect %v: cell (%d,%d,%d) = %v, want %v", r, i, j, k, part.At(i, j, k), want.At(i, j, k))
					}
				}
			}
		}

		orig2 := randF2(b, int64(n))
		full2, part2 := orig2.Clone(), orig2.Clone()
		full2.FillXPeriodic()
		part2.FillXPeriodicRows(r)
		for j := s.J0; j < s.J1; j++ {
			want := orig2
			if j >= r.J0 && j < r.J1 {
				want = full2
			}
			for i := s.I0; i < s.I1; i++ {
				if part2.At(i, j) != want.At(i, j) {
					t.Fatalf("rect %v: 2-D cell (%d,%d) = %v, want %v", r, i, j, part2.At(i, j), want.At(i, j))
				}
			}
		}
	}
}

// TestBoundaryFillsDoNotAllocate: the fills run several times per step on
// every rank, so they must stay off the heap.
func TestBoundaryFillsDoNotAllocate(t *testing.T) {
	b := deepBlock()
	f, f2 := NewF3(b), NewF2(b)
	r := Rect{I0: 0, I1: 8, J0: 1, J1: 4, K0: 0, K1: 2}
	allocs := testing.AllocsPerRun(20, func() {
		f.FillXPeriodicRows(r)
		f2.FillXPeriodicRows(r)
		f.FillXPeriodic()
		f2.FillXPeriodic()
		FillVerticalZ(f, 1)
		FillPolesY(f, Odd, FaceY, 2)
		FillPolesY2(f2, Even, 2)
		FillPolesYShifted(f, Even, CenterY, 2)
		FillPolesY2Shifted(f2, Even, 2)
	})
	if allocs != 0 {
		t.Errorf("boundary fills allocate %v times per call set, want 0", allocs)
	}
}
