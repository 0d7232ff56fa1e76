package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/state"
)

// storeSnap builds a small real snapshot to round-trip through the store.
func storeSnap(t *testing.T, scale float64) *Global {
	t.Helper()
	g := grid.New(16, 8, 4)
	b := field.Block{
		Nx: g.Nx, Ny: g.Ny, Nz: g.Nz,
		I0: 0, I1: g.Nx, J0: 0, J1: g.Ny, K0: 0, K1: g.Nz,
		Hx: 3, Hy: 2, Hz: 1,
	}
	st := state.New(b)
	heldsuarez.InitialState(g, st)
	gl := Gather(g, []*state.State{st})
	for i := range gl.U {
		gl.U[i] *= scale
	}
	return gl
}

func TestDirStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDirStore(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}

	if _, _, err := s.Latest("job-1"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("Latest on empty store: %v, want ErrNoSnapshot", err)
	}

	first := storeSnap(t, 1)
	if err := s.Put("job-1", 3, first); err != nil {
		t.Fatalf("Put: %v", err)
	}
	second := storeSnap(t, 2)
	if err := s.Put("job-1", 7, second); err != nil {
		t.Fatalf("Put step 7: %v", err)
	}
	gl, step, err := s.Latest("job-1")
	if err != nil || step != 7 {
		t.Fatalf("Latest: step %d err %v, want 7", step, err)
	}
	if !gl.Equal(second) {
		t.Fatal("Latest returned a different snapshot than Put stored")
	}

	// Put prunes superseded steps: only the newest file remains.
	ents, err := os.ReadDir(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var files []string
	for _, e := range ents {
		files = append(files, e.Name())
	}
	if len(files) != 1 || files[0] != "job-1@00000007.ck" {
		t.Fatalf("store contents after prune: %v", files)
	}

	keys, err := s.Keys()
	if err != nil || len(keys) != 1 || keys[0] != "job-1" {
		t.Fatalf("Keys: %v (%v)", keys, err)
	}
}

func TestDirStoreSkipsCorruptSnapshots(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDirStore(dir)
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}
	good := storeSnap(t, 1)
	if err := s.Put("k", 2, good); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Plant a corrupt "newer" snapshot beside it (as a torn write would).
	bad := filepath.Join(dir, "k@00000009.ck")
	//cadyvet:volatile deliberately plants a torn, non-durable file to prove Latest falls back past it
	if err := os.WriteFile(bad, []byte("torn"), 0o644); err != nil {
		t.Fatalf("writing corrupt file: %v", err)
	}
	gl, step, err := s.Latest("k")
	if err != nil {
		t.Fatalf("Latest with corrupt newest: %v", err)
	}
	if step != 2 || !gl.Equal(good) {
		t.Fatalf("Latest picked step %d, want fallback to the valid step 2", step)
	}
}

func TestDirStoreSharedAcrossHandles(t *testing.T) {
	dir := t.TempDir()
	a, err := NewDirStore(dir)
	if err != nil {
		t.Fatalf("NewDirStore a: %v", err)
	}
	b, err := NewDirStore(dir)
	if err != nil {
		t.Fatalf("NewDirStore b: %v", err)
	}
	gl := storeSnap(t, 3)
	if err := a.Put("shared", 5, gl); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, step, err := b.Latest("shared")
	if err != nil || step != 5 || !got.Equal(gl) {
		t.Fatalf("second handle sees step %d err %v", step, err)
	}
}

func TestDirStoreRejectsBadKeys(t *testing.T) {
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}
	gl := storeSnap(t, 1)
	for _, key := range []string{"", "a/b", "../escape", "sp ace", string(make([]byte, 200))} {
		if err := s.Put(key, 1, gl); err == nil {
			t.Fatalf("Put accepted invalid key %q", key)
		}
		if _, _, err := s.Latest(key); err == nil {
			t.Fatalf("Latest accepted invalid key %q", key)
		}
	}
}

func TestNonFiniteSnapshotNeverWritten(t *testing.T) {
	// A NaN or an infinity in any component is refused with ErrNonFinite
	// before a byte is written — by Write itself and so by every durable
	// path built on it — and the last good snapshot stays readable.
	poisons := []struct {
		name   string
		poison func(gl *Global)
	}{
		{"u NaN", func(gl *Global) { gl.U[7] = math.NaN() }},
		{"v +Inf", func(gl *Global) { gl.V[len(gl.V)-1] = math.Inf(1) }},
		{"phi -Inf", func(gl *Global) { gl.Phi[0] = math.Inf(-1) }},
		{"psa NaN", func(gl *Global) { gl.Psa[3] = math.NaN() }},
	}
	for _, tc := range poisons {
		t.Run(tc.name, func(t *testing.T) {
			good := storeSnap(t, 1)
			bad := storeSnap(t, 1)
			tc.poison(bad)

			var buf bytes.Buffer
			if err := bad.Write(&buf); !errors.Is(err, ErrNonFinite) {
				t.Fatalf("Write: %v, want ErrNonFinite", err)
			}
			if buf.Len() != 0 {
				t.Fatalf("Write emitted %d bytes of a poisoned snapshot", buf.Len())
			}

			dir := t.TempDir()
			fresh := filepath.Join(dir, "fresh.ck")
			if err := WriteAtomic(fresh, bad); !errors.Is(err, ErrNonFinite) {
				t.Fatalf("WriteAtomic: %v, want ErrNonFinite", err)
			}
			for _, p := range []string{fresh, fresh + ".tmp"} {
				if _, err := os.Stat(p); !os.IsNotExist(err) {
					t.Fatalf("%s left behind (stat err %v)", filepath.Base(p), err)
				}
			}

			// Over an existing good file the refusal leaves it untouched.
			kept := filepath.Join(dir, "kept.ck")
			if err := WriteAtomic(kept, good); err != nil {
				t.Fatalf("WriteAtomic good: %v", err)
			}
			if err := WriteAtomic(kept, bad); !errors.Is(err, ErrNonFinite) {
				t.Fatalf("WriteAtomic over good: %v, want ErrNonFinite", err)
			}
			if back := readFile(t, kept); !back.Equal(good) {
				t.Fatal("refused write disturbed the previous snapshot")
			}

			s, err := NewDirStore(filepath.Join(dir, "store"))
			if err != nil {
				t.Fatalf("NewDirStore: %v", err)
			}
			if err := s.Put("job", 5, good); err != nil {
				t.Fatalf("Put good: %v", err)
			}
			if err := s.Put("job", 10, bad); !errors.Is(err, ErrNonFinite) {
				t.Fatalf("Put poisoned: %v, want ErrNonFinite", err)
			}
			gl, step, err := s.Latest("job")
			if err != nil || step != 5 || !gl.Equal(good) {
				t.Fatalf("Latest after refused Put: step %d err %v, want the step-5 snapshot", step, err)
			}
		})
	}
}

func readFile(t *testing.T, path string) *Global {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gl, err := Read(f)
	if err != nil {
		t.Fatal(err)
	}
	return gl
}
