package cmplxmat

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether a and b hold the same float bits.
func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// TestSharedWorkspaceBitIdentical drives two factorizations of
// different shapes through one workspace, interleaving fresh
// factorizations and rank-1 updates of both, and checks every step
// against the same sequence on two QRs with private workspaces: no
// scratch value may leak from one factorization into the other.
func TestSharedWorkspaceBitIdentical(t *testing.T) {
	rnd := rand.New(rand.NewSource(19))
	shapes := [2]struct{ m, n int }{{4, 2}, {6, 4}}
	var ws QRWorkspace
	var shared, private [2]QR
	randVec := func(n int, scale float64) []complex128 {
		v := make([]complex128, n)
		for i := range v {
			v[i] = complex(scale*rnd.NormFloat64(), scale*rnd.NormFloat64())
		}
		return v
	}
	check := func(step string, k int) {
		t.Helper()
		if !sameBits(shared[k].Q.Data, private[k].Q.Data) || !sameBits(shared[k].R.Data, private[k].R.Data) {
			t.Fatalf("%s of QR %d: shared-workspace factors differ from the private ones", step, k)
		}
	}
	for round := 0; round < 6; round++ {
		for _, k := range []int{0, 1} {
			a := randomMatrix(rnd, shapes[k].m, shapes[k].n)
			ws.Decompose(&shared[k], a)
			QRDecomposeInto(&private[k], a)
			check("decompose", k)
		}
		for _, k := range []int{1, 0, 1} {
			u := randVec(shapes[k].m, 0.05)
			v := make([]complex128, shapes[k].n)
			v[rnd.Intn(len(v))] = 1
			ws.Update(&shared[k], u, v)
			QRUpdateInto(&private[k], u, v)
			check("update", k)
		}
	}
	if shared[0].own != nil || shared[1].own != nil {
		t.Fatal("a QR driven through a shared workspace made its own")
	}
}

// TestSharedWorkspaceZeroAlloc: once a shared workspace has seen the
// largest shape, factorizing and updating any mix of smaller or equal
// shapes through it allocates nothing.
func TestSharedWorkspaceZeroAlloc(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	big, small := randomMatrix(rnd, 6, 4), randomMatrix(rnd, 4, 2)
	var ws QRWorkspace
	var qb, qs QR
	ws.Decompose(&qb, big)
	ws.Decompose(&qs, small)
	u, v := make([]complex128, 4), make([]complex128, 2)
	u[1], v[0] = 0.01, 1
	allocs := testing.AllocsPerRun(50, func() {
		ws.Decompose(&qb, big)
		ws.Decompose(&qs, small)
		ws.Update(&qs, u, v)
	})
	if allocs != 0 {
		t.Fatalf("warm shared workspace allocated %.1f objects per round, want 0", allocs)
	}
}
