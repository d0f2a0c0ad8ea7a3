package gf256

import (
	"bytes"
	"testing"
	"testing/quick"

	"silica/internal/sim"
)

// Property tests on the linear algebra the erasure layer depends on.

func randMatrix(r *sim.RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = byte(r.Uint64())
	}
	return m
}

func TestMatMulAssociativity(t *testing.T) {
	r := sim.NewRNG(101)
	for trial := 0; trial < 30; trial++ {
		a := randMatrix(r, 4, 5)
		b := randMatrix(r, 5, 3)
		c := randMatrix(r, 3, 6)
		left := MulMat(MulMat(a, b), c)
		right := MulMat(a, MulMat(b, c))
		if !bytes.Equal(left.Data, right.Data) {
			t.Fatal("(AB)C != A(BC)")
		}
	}
}

func TestMatVecLinearity(t *testing.T) {
	r := sim.NewRNG(103)
	m := randMatrix(r, 6, 6)
	err := quick.Check(func(raw []byte) bool {
		v := make([]byte, 6)
		w := make([]byte, 6)
		for i := 0; i < 6 && i < len(raw); i++ {
			v[i] = raw[i]
		}
		for i := range w {
			w[i] = byte(r.Uint64())
		}
		sum := make([]byte, 6)
		for i := range sum {
			sum[i] = v[i] ^ w[i]
		}
		mv, mw, ms := m.MulVec(v), m.MulVec(w), m.MulVec(sum)
		for i := range ms {
			if ms[i] != mv[i]^mw[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIdentityIsNeutral(t *testing.T) {
	r := sim.NewRNG(107)
	for trial := 0; trial < 20; trial++ {
		m := randMatrix(r, 5, 5)
		if !bytes.Equal(MulMat(Identity(5), m).Data, m.Data) {
			t.Fatal("I*M != M")
		}
		if !bytes.Equal(MulMat(m, Identity(5)).Data, m.Data) {
			t.Fatal("M*I != M")
		}
	}
}

func TestMulAddVecMatchesScalarLoop(t *testing.T) {
	r := sim.NewRNG(109)
	err := quick.Check(func(c byte) bool {
		dst := make([]byte, 64)
		src := make([]byte, 64)
		for i := range src {
			dst[i] = byte(r.Uint64())
			src[i] = byte(r.Uint64())
		}
		want := make([]byte, 64)
		for i := range want {
			want[i] = dst[i] ^ Mul(c, src[i])
		}
		MulAddVec(dst, src, c)
		return bytes.Equal(dst, want)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCauchyAllEntriesNonzero(t *testing.T) {
	// A zero coefficient would silently drop an information unit from
	// a redundancy combination.
	c := Cauchy(56, 200) // the largest shapes the levels use
	for _, v := range c.Data {
		if v == 0 {
			t.Fatal("Cauchy matrix has a zero entry")
		}
	}
}

func TestInverseOfInverse(t *testing.T) {
	r := sim.NewRNG(113)
	for trial := 0; trial < 20; trial++ {
		m := randMatrix(r, 6, 6)
		inv, ok := m.Invert()
		if !ok {
			continue
		}
		back, ok := inv.Invert()
		if !ok {
			t.Fatal("inverse not invertible")
		}
		if !bytes.Equal(back.Data, m.Data) {
			t.Fatal("(M^-1)^-1 != M")
		}
	}
}
