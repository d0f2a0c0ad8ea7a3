package gf256

import (
	"bytes"
	"testing"
	"testing/quick"

	"silica/internal/sim"
)

func TestFieldAxioms(t *testing.T) {
	cfg := &quick.Config{MaxCount: 5000}
	if err := quick.Check(func(a, b, c byte) bool {
		// Commutativity and associativity of multiplication; addition
		// is XOR, for which both hold by construction.
		if Mul(a, b) != Mul(b, a) || Mul(Mul(a, b), c) != Mul(a, Mul(b, c)) {
			return false
		}
		// Distributivity over XOR.
		return Mul(a, b^c) == Mul(a, b)^Mul(a, c)
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestIdentitiesAndInverses(t *testing.T) {
	for a := 0; a < 256; a++ {
		x := byte(a)
		if Mul(x, 1) != x || Mul(x, 0) != 0 {
			t.Fatalf("identity laws fail for %d", a)
		}
		if x != 0 {
			if Mul(x, Inv(x)) != 1 {
				t.Fatalf("multiplicative inverse fails for %d", a)
			}
			if Div(Mul(x, 7), x) != 7 {
				t.Fatalf("division fails for %d", a)
			}
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by 0 did not panic")
		}
	}()
	Div(3, 0)
}

func TestMulAddVec(t *testing.T) {
	dst := []byte{1, 2, 3, 4}
	src := []byte{5, 6, 7, 8}
	want := make([]byte, 4)
	for i := range want {
		want[i] = dst[i] ^ Mul(9, src[i])
	}
	MulAddVec(dst, src, 9)
	if !bytes.Equal(dst, want) {
		t.Fatalf("MulAddVec = %v, want %v", dst, want)
	}
	// c == 0 is a no-op; c == 1 is XOR.
	cp := append([]byte(nil), dst...)
	MulAddVec(dst, src, 0)
	if !bytes.Equal(dst, cp) {
		t.Fatal("MulAddVec with c=0 changed dst")
	}
	MulAddVec(dst, src, 1)
	for i := range dst {
		if dst[i] != cp[i]^src[i] {
			t.Fatal("MulAddVec with c=1 is not XOR")
		}
	}
}

func TestMulAddVecLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	MulAddVec(make([]byte, 3), make([]byte, 4), 2)
}

func TestScaleVec(t *testing.T) {
	v := []byte{0, 1, 2, 250}
	want := make([]byte, len(v))
	for i := range v {
		want[i] = Mul(v[i], 77)
	}
	ScaleVec(v, 77)
	if !bytes.Equal(v, want) {
		t.Fatalf("ScaleVec = %v, want %v", v, want)
	}
	ScaleVec(v, 0)
	for _, x := range v {
		if x != 0 {
			t.Fatal("ScaleVec by 0 should zero the vector")
		}
	}
}

func TestMatrixInvertRoundTrip(t *testing.T) {
	r := sim.NewRNG(42)
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(12)
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = byte(r.Uint64())
		}
		inv, ok := m.Invert()
		if !ok {
			continue // singular random matrix; fine
		}
		prod := MulMat(m, inv)
		if !bytes.Equal(prod.Data, Identity(n).Data) {
			t.Fatalf("m * m^-1 != I for n=%d", n)
		}
		prod2 := MulMat(inv, m)
		if !bytes.Equal(prod2.Data, Identity(n).Data) {
			t.Fatalf("m^-1 * m != I for n=%d", n)
		}
	}
}

func TestSingularDetected(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 3)
	m.Set(0, 1, 5)
	m.Set(1, 0, 3)
	m.Set(1, 1, 5)
	if _, ok := m.Invert(); ok {
		t.Fatal("singular matrix reported invertible")
	}
	z := NewMatrix(3, 3)
	if _, ok := z.Invert(); ok {
		t.Fatal("zero matrix reported invertible")
	}
}

func TestMulVecAgainstMulMat(t *testing.T) {
	r := sim.NewRNG(7)
	m := NewMatrix(5, 8)
	for i := range m.Data {
		m.Data[i] = byte(r.Uint64())
	}
	v := make([]byte, 8)
	for i := range v {
		v[i] = byte(r.Uint64())
	}
	col := NewMatrix(8, 1)
	copy(col.Data, v)
	want := MulMat(m, col)
	got := m.MulVec(v)
	if !bytes.Equal(got, want.Data) {
		t.Fatalf("MulVec = %v, want %v", got, want.Data)
	}
}

// TestCauchyMDS verifies the property the erasure layer depends on: for
// the stacked code [I ; Cauchy], ANY square selection of rows is
// invertible — i.e. any I surviving units reconstruct the data.
func TestCauchyMDS(t *testing.T) {
	const k, rRows = 8, 4
	c := Cauchy(rRows, k)
	full := NewMatrix(k+rRows, k)
	for i := 0; i < k; i++ {
		full.Set(i, i, 1)
	}
	for i := 0; i < rRows; i++ {
		copy(full.Row(k+i), c.Row(i))
	}
	// Check a spread of k-subsets of the k+r rows, including all the
	// "worst case" ones that take the most parity rows.
	r := sim.NewRNG(123)
	check := func(rows []int) {
		sub := NewMatrix(k, k)
		for i, ri := range rows {
			copy(sub.Row(i), full.Row(ri))
		}
		if _, ok := sub.Invert(); !ok {
			t.Fatalf("Cauchy submatrix singular for rows %v", rows)
		}
	}
	// All parity rows + first k-r info rows.
	rows := []int{8, 9, 10, 11, 0, 1, 2, 3}
	check(rows)
	for trial := 0; trial < 200; trial++ {
		perm := r.Perm(k + rRows)
		check(perm[:k])
	}
}

func TestCauchyTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized Cauchy did not panic")
		}
	}()
	Cauchy(200, 100)
}

func BenchmarkMulAddVec4K(b *testing.B) {
	dst := make([]byte, 4096)
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i)
	}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddVec(dst, src, 0x57)
	}
}

func BenchmarkInvert100x100(b *testing.B) {
	// The within-track decode inverts a ~100x100 matrix (I_t = 100).
	r := sim.NewRNG(5)
	m := NewMatrix(100, 100)
	for i := range m.Data {
		m.Data[i] = byte(r.Uint64())
	}
	for i := 0; i < 100; i++ {
		m.Set(i, i, 1) // nudge away from singularity
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Invert(); !ok {
			b.Fatal("singular")
		}
	}
}
