// Package checkpoint serializes model states to a compact, versioned binary
// format so long simulations can be stopped and restarted — the restart-file
// capability every production AGCM has. The format stores the global mesh
// shape and, per rank, the owned region of every component; files written by
// one decomposition can be read back under any other (a gather/scatter pair
// over the global index space).
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"

	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/state"
)

// magic and version identify the file format.
const (
	magic   = "CADY"
	version = 1
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// ErrNonFinite is returned (wrapped with the offending component and index)
// by Write, and so by WriteAtomic and DirStore.Put, for a snapshot holding a
// NaN or an infinity: a diverged state is never checkpointed.
var ErrNonFinite = errors.New("checkpoint: state is not finite")

// Global is a gathered, decomposition-independent snapshot of ξ.
type Global struct {
	Nx, Ny, Nz int
	// Dense arrays in (k, j, i) order; Psa in (j, i) order.
	U, V, Phi []float64
	Psa       []float64
}

// Gather collects the owned regions of per-rank states into a Global
// snapshot. Every global point must be covered exactly once by the blocks
// (z-replicated surface fields are taken from the K0 = 0 blocks).
func Gather(g *grid.Grid, sts []*state.State) *Global {
	n3 := g.Nx * g.Ny * g.Nz
	gl := &Global{
		Nx: g.Nx, Ny: g.Ny, Nz: g.Nz,
		U: make([]float64, n3), V: make([]float64, n3), Phi: make([]float64, n3),
		Psa: make([]float64, g.Nx*g.Ny),
	}
	for _, st := range sts {
		b := st.B
		for k := b.K0; k < b.K1; k++ {
			for j := b.J0; j < b.J1; j++ {
				for i := b.I0; i < b.I1; i++ {
					idx := (k*g.Ny+j)*g.Nx + i
					gl.U[idx] = st.U.At(i, j, k)
					gl.V[idx] = st.V.At(i, j, k)
					gl.Phi[idx] = st.Phi.At(i, j, k)
				}
			}
		}
		if b.K0 == 0 {
			for j := b.J0; j < b.J1; j++ {
				for i := b.I0; i < b.I1; i++ {
					gl.Psa[j*g.Nx+i] = st.Psa.At(i, j)
				}
			}
		}
	}
	return gl
}

// Scatter fills a rank's state (owned region only) from the snapshot; call
// the integrator's SetState afterwards to refresh halos.
func (gl *Global) Scatter(st *state.State) error {
	b := st.B
	if b.Nx != gl.Nx || b.Ny != gl.Ny || b.Nz != gl.Nz {
		return fmt.Errorf("checkpoint: mesh %dx%dx%d does not match snapshot %dx%dx%d",
			b.Nx, b.Ny, b.Nz, gl.Nx, gl.Ny, gl.Nz)
	}
	for k := b.K0; k < b.K1; k++ {
		for j := b.J0; j < b.J1; j++ {
			for i := b.I0; i < b.I1; i++ {
				idx := (k*gl.Ny+j)*gl.Nx + i
				st.U.Set(i, j, k, gl.U[idx])
				st.V.Set(i, j, k, gl.V[idx])
				st.Phi.Set(i, j, k, gl.Phi[idx])
			}
		}
	}
	for j := b.J0; j < b.J1; j++ {
		for i := b.I0; i < b.I1; i++ {
			st.Psa.Set(i, j, gl.Psa[j*gl.Nx+i])
		}
	}
	return nil
}

// InitFunc returns a dycore-compatible initializer that scatters the
// snapshot into each rank's state.
func (gl *Global) InitFunc() func(g *grid.Grid, st *state.State) {
	return func(g *grid.Grid, st *state.State) {
		if err := gl.Scatter(st); err != nil {
			panic(err)
		}
	}
}

// checkFinite reports the first non-finite value as a wrapped ErrNonFinite.
func (gl *Global) checkFinite() error {
	for _, c := range []struct {
		name string
		arr  []float64
	}{{"u", gl.U}, {"v", gl.V}, {"phi", gl.Phi}, {"psa", gl.Psa}} {
		for i, v := range c.arr {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: %s[%d] = %g", ErrNonFinite, c.name, i, v)
			}
		}
	}
	return nil
}

// Write serializes the snapshot: header (magic, version, dims), the four
// component arrays, and a trailing CRC64 of everything before it. A
// non-finite snapshot is refused with ErrNonFinite before any byte is
// written.
func (gl *Global) Write(w io.Writer) error {
	if err := gl.checkFinite(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	h := crc64.New(crcTable)
	mw := io.MultiWriter(bw, h)

	if _, err := mw.Write([]byte(magic)); err != nil {
		return err
	}
	for _, v := range []uint32{version, uint32(gl.Nx), uint32(gl.Ny), uint32(gl.Nz)} {
		if err := binary.Write(mw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, arr := range [][]float64{gl.U, gl.V, gl.Phi, gl.Psa} {
		if err := binary.Write(mw, binary.LittleEndian, arr); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, h.Sum64()); err != nil {
		return err
	}
	return bw.Flush()
}

// Read deserializes and verifies a snapshot.
func Read(r io.Reader) (*Global, error) {
	br := bufio.NewReader(r)
	h := crc64.New(crcTable)
	tr := io.TeeReader(br, h)

	mg := make([]byte, 4)
	if _, err := io.ReadFull(tr, mg); err != nil {
		return nil, fmt.Errorf("checkpoint: reading magic: %w", err)
	}
	if string(mg) != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", mg)
	}
	var hdr [4]uint32
	for i := range hdr {
		if err := binary.Read(tr, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("checkpoint: reading header: %w", err)
		}
	}
	if hdr[0] != version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", hdr[0])
	}
	nx, ny, nz := int(hdr[1]), int(hdr[2]), int(hdr[3])
	if nx <= 0 || ny <= 0 || nz <= 0 || nx*ny*nz > 1<<30 {
		return nil, fmt.Errorf("checkpoint: implausible mesh %dx%dx%d", nx, ny, nz)
	}
	gl := &Global{
		Nx: nx, Ny: ny, Nz: nz,
		U: make([]float64, nx*ny*nz), V: make([]float64, nx*ny*nz),
		Phi: make([]float64, nx*ny*nz), Psa: make([]float64, nx*ny),
	}
	for _, arr := range [][]float64{gl.U, gl.V, gl.Phi, gl.Psa} {
		if err := binary.Read(tr, binary.LittleEndian, arr); err != nil {
			return nil, fmt.Errorf("checkpoint: reading data: %w", err)
		}
	}
	want := h.Sum64()
	var got uint64
	if err := binary.Read(br, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("checkpoint: reading checksum: %w", err)
	}
	if got != want {
		return nil, fmt.Errorf("checkpoint: checksum mismatch (file corrupt)")
	}
	return gl, nil
}

// Equal reports whether two snapshots are bitwise identical.
func (gl *Global) Equal(o *Global) bool {
	if gl.Nx != o.Nx || gl.Ny != o.Ny || gl.Nz != o.Nz {
		return false
	}
	eq := func(a, b []float64) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	return eq(gl.U, o.U) && eq(gl.V, o.V) && eq(gl.Phi, o.Phi) && eq(gl.Psa, o.Psa)
}

// BlockOf is a helper for tests: the trivial serial block of a mesh.
func BlockOf(g *grid.Grid) field.Block {
	return field.Block{
		Nx: g.Nx, Ny: g.Ny, Nz: g.Nz,
		I0: 0, I1: g.Nx, J0: 0, J1: g.Ny, K0: 0, K1: g.Nz,
		Hx: 3, Hy: 2, Hz: 1,
	}
}
