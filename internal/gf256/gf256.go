// Package gf256 implements arithmetic over GF(2^8) and the small linear
// algebra needed by Silica's network-coding erasure layer (§5): vector
// scale-and-add for encoding linear combinations of sectors, matrix
// inversion for decoding, and Cauchy matrix construction which makes the
// code MDS (any I of I+R coded units suffice to decode).
//
// The field uses the primitive polynomial x^8+x^4+x^3+x^2+1 (0x11d),
// under which x generates the full multiplicative group, so log/exp
// tables built by repeated doubling cover every nonzero element. (The
// AES polynomial 0x11b would not work here: x has order 51 in it.)
package gf256

import "encoding/binary"

const poly = 0x11d

var (
	expTable [512]byte // doubled so mul can skip a mod
	logTable [256]byte
	// mulTable[c] is the full 256-byte row c*x for every x: one L1-resident
	// table lookup per byte on the vector hot paths, instead of two log
	// lookups, an add, and an exp lookup. 64 KiB total, built once.
	mulTable [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= poly
		}
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
	for c := 1; c < 256; c++ {
		row := &mulTable[c]
		lc := int(logTable[c])
		for v := 1; v < 256; v++ {
			row[v] = expTable[lc+int(logTable[v])]
		}
	}
}

// xorWords computes dst[i] ^= src[i] eight bytes at a time.
func xorWords(dst, src []byte) {
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		d := binary.LittleEndian.Uint64(dst[i:])
		s := binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], d^s)
	}
	for i := n; i < len(dst); i++ {
		dst[i] ^= src[i]
	}
}

// Mul returns a * b.
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Inv returns the multiplicative inverse of a. It panics on 0.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return expTable[255-int(logTable[a])]
}

// Div returns a / b. It panics when b is 0.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])+255-int(logTable[b])]
}

// MulAddVec computes dst[i] ^= c * src[i] for all i: the inner loop of
// network-coding encode and decode. dst and src must be equal length.
func MulAddVec(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf256: MulAddVec length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		xorWords(dst, src)
		return
	}
	mt := &mulTable[c]
	// Unrolled by 4: the table lookups are independent, so the CPU can
	// overlap them; bounds checks are hoisted by the s4 slicing.
	i := 0
	for ; i+4 <= len(src); i += 4 {
		s4 := src[i : i+4 : i+4]
		d4 := dst[i : i+4 : i+4]
		d4[0] ^= mt[s4[0]]
		d4[1] ^= mt[s4[1]]
		d4[2] ^= mt[s4[2]]
		d4[3] ^= mt[s4[3]]
	}
	for ; i < len(src); i++ {
		dst[i] ^= mt[src[i]]
	}
}

// ScaleVec computes dst[i] = c * dst[i] for all i.
func ScaleVec(dst []byte, c byte) {
	if c == 1 {
		return
	}
	if c == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	mt := &mulTable[c]
	for i, d := range dst {
		dst[i] = mt[d]
	}
}

// Matrix is a dense row-major matrix over GF(2^8).
type Matrix struct {
	Rows, Cols int
	Data       []byte // Rows*Cols, row-major
}

// NewMatrix returns a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]byte, rows*cols)}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) byte { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v byte) { m.Data[r*m.Cols+c] = v }

// Row returns a view of row r.
func (m *Matrix) Row(r int) []byte { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	n := NewMatrix(m.Rows, m.Cols)
	copy(n.Data, m.Data)
	return n
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// MulMat returns a * b. Panics on dimension mismatch.
func MulMat(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic("gf256: matrix dimension mismatch")
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av != 0 {
				MulAddVec(orow, b.Row(k), av)
			}
		}
	}
	return out
}

// MulVec returns m * v as a new vector.
func (m *Matrix) MulVec(v []byte) []byte {
	out := make([]byte, m.Rows)
	m.MulVecInto(v, out)
	return out
}

// MulVecInto computes dst = m * v without allocating; dst must have
// length m.Rows.
func (m *Matrix) MulVecInto(v, dst []byte) {
	if len(v) != m.Cols {
		panic("gf256: MulVec dimension mismatch")
	}
	if len(dst) != m.Rows {
		panic("gf256: MulVecInto destination length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var acc byte
		for j, c := range row {
			if c != 0 {
				acc ^= mulTable[c][v[j]]
			}
		}
		dst[i] = acc
	}
}

// Invert returns the inverse of a square matrix via Gauss-Jordan
// elimination, or ok=false if the matrix is singular.
func (m *Matrix) Invert() (*Matrix, bool) {
	if m.Rows != m.Cols {
		panic("gf256: inverting non-square matrix")
	}
	n := m.Rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Find pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if a.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, false
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Normalize pivot row.
		p := a.At(col, col)
		if p != 1 {
			ip := Inv(p)
			ScaleVec(a.Row(col), ip)
			ScaleVec(inv.Row(col), ip)
		}
		// Eliminate other rows.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f != 0 {
				MulAddVec(a.Row(r), a.Row(col), f)
				MulAddVec(inv.Row(r), inv.Row(col), f)
			}
		}
	}
	return inv, true
}

func swapRows(m *Matrix, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Cauchy returns the rows x cols Cauchy matrix C[i][j] = 1/(x_i + y_j)
// with x_i = i + cols and y_j = j. Every square submatrix of a Cauchy
// matrix is invertible, which makes the erasure code built from it MDS.
// rows+cols must be <= 256 so all x_i, y_j are distinct field elements.
func Cauchy(rows, cols int) *Matrix {
	if rows+cols > 256 {
		panic("gf256: Cauchy matrix needs rows+cols <= 256")
	}
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		x := byte(i + cols)
		for j := 0; j < cols; j++ {
			y := byte(j)
			m.Set(i, j, Inv(x^y))
		}
	}
	return m
}
