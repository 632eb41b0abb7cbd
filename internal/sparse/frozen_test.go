package sparse

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// Differential harness for the semiring refactor: frozenMatrix is a
// verbatim copy of the pre-refactor int64-only kernel (serial
// Gustavson, merge add/sub, boolean collapse, diag, transpose,
// closure). The tests below drive the generic kernel instantiated at
// IntRing against it on randomized inputs — including negative entries,
// cancellation, and the few-rows/parallel gates — and require the CSR
// arrays to be byte-identical, not merely Equal.

type frozenMatrix struct {
	n      int
	rowPtr []int32
	colIdx []int32
	val    []int64
}

func frozenFrom(m *Matrix) *frozenMatrix {
	return &frozenMatrix{n: m.n, rowPtr: m.rowPtr, colIdx: m.colIdx, val: m.val}
}

func frozenIdentity(n int) *frozenMatrix {
	m := &frozenMatrix{
		n:      n,
		rowPtr: make([]int32, n+1),
		colIdx: make([]int32, n),
		val:    make([]int64, n),
	}
	for i := 0; i < n; i++ {
		m.rowPtr[i+1] = int32(i + 1)
		m.colIdx[i] = int32(i)
		m.val[i] = 1
	}
	return m
}

func (m *frozenMatrix) mul(o *frozenMatrix) *frozenMatrix {
	p := &frozenMatrix{n: m.n, rowPtr: make([]int32, m.n+1)}
	acc := make([]int64, m.n)
	touched := make([]int32, 0, 64)
	for r := 0; r < m.n; r++ {
		touched = touched[:0]
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			k := m.colIdx[i]
			mv := m.val[i]
			for j := o.rowPtr[k]; j < o.rowPtr[k+1]; j++ {
				c := o.colIdx[j]
				if acc[c] == 0 {
					touched = append(touched, c)
				}
				acc[c] += mv * o.val[j]
			}
		}
		sort.Slice(touched, func(a, b int) bool { return touched[a] < touched[b] })
		for _, c := range touched {
			if acc[c] != 0 {
				p.colIdx = append(p.colIdx, c)
				p.val = append(p.val, acc[c])
			}
			acc[c] = 0
		}
		p.rowPtr[r+1] = int32(len(p.colIdx))
	}
	return p
}

func (m *frozenMatrix) merge(o *frozenMatrix, sign int64) *frozenMatrix {
	s := &frozenMatrix{n: m.n, rowPtr: make([]int32, m.n+1)}
	for r := 0; r < m.n; r++ {
		i, iEnd := m.rowPtr[r], m.rowPtr[r+1]
		j, jEnd := o.rowPtr[r], o.rowPtr[r+1]
		for i < iEnd || j < jEnd {
			switch {
			case j >= jEnd || (i < iEnd && m.colIdx[i] < o.colIdx[j]):
				s.colIdx = append(s.colIdx, m.colIdx[i])
				s.val = append(s.val, m.val[i])
				i++
			case i >= iEnd || o.colIdx[j] < m.colIdx[i]:
				s.colIdx = append(s.colIdx, o.colIdx[j])
				s.val = append(s.val, sign*o.val[j])
				j++
			default:
				if v := m.val[i] + sign*o.val[j]; v != 0 {
					s.colIdx = append(s.colIdx, m.colIdx[i])
					s.val = append(s.val, v)
				}
				i++
				j++
			}
		}
		s.rowPtr[r+1] = int32(len(s.colIdx))
	}
	return s
}

func (m *frozenMatrix) boolean() *frozenMatrix {
	b := &frozenMatrix{n: m.n, rowPtr: make([]int32, m.n+1)}
	for r := 0; r < m.n; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			if m.val[i] > 0 {
				b.colIdx = append(b.colIdx, m.colIdx[i])
				b.val = append(b.val, 1)
			}
		}
		b.rowPtr[r+1] = int32(len(b.colIdx))
	}
	return b
}

func (m *frozenMatrix) diagMulBool() *frozenMatrix {
	d := &frozenMatrix{n: m.n, rowPtr: make([]int32, m.n+1)}
	for r := 0; r < m.n; r++ {
		var sum int64
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			if m.val[i] > 0 {
				sum += m.val[i]
			}
		}
		if sum != 0 {
			d.colIdx = append(d.colIdx, int32(r))
			d.val = append(d.val, sum)
		}
		d.rowPtr[r+1] = int32(len(d.colIdx))
	}
	return d
}

func (m *frozenMatrix) transpose() *frozenMatrix {
	t := &frozenMatrix{
		n:      m.n,
		rowPtr: make([]int32, m.n+1),
		colIdx: make([]int32, len(m.colIdx)),
		val:    make([]int64, len(m.val)),
	}
	for _, c := range m.colIdx {
		t.rowPtr[c+1]++
	}
	for r := 0; r < m.n; r++ {
		t.rowPtr[r+1] += t.rowPtr[r]
	}
	next := make([]int32, m.n)
	copy(next, t.rowPtr[:m.n])
	for r := 0; r < m.n; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			c := m.colIdx[i]
			t.colIdx[next[c]] = int32(r)
			t.val[next[c]] = m.val[i]
			next[c]++
		}
	}
	return t
}

func (m *frozenMatrix) equalFrozen(o *frozenMatrix) bool {
	if m.n != o.n || len(m.val) != len(o.val) {
		return false
	}
	for i := range m.rowPtr {
		if m.rowPtr[i] != o.rowPtr[i] {
			return false
		}
	}
	for i := range m.val {
		if m.colIdx[i] != o.colIdx[i] || m.val[i] != o.val[i] {
			return false
		}
	}
	return true
}

func (m *frozenMatrix) closure() *frozenMatrix {
	cur := frozenIdentity(m.n).merge(m.boolean(), 1).boolean()
	for {
		next := cur.mul(cur).boolean()
		if next.equalFrozen(cur) {
			return cur
		}
		cur = next
	}
}

// byteIdentical asserts the generic-kernel result has exactly the same
// CSR arrays as the frozen-kernel result.
func byteIdentical(t *testing.T, op string, got *Matrix, want *frozenMatrix) {
	t.Helper()
	if got.n != want.n || len(got.rowPtr) != len(want.rowPtr) ||
		len(got.colIdx) != len(want.colIdx) || len(got.val) != len(want.val) {
		t.Fatalf("%s: shape mismatch: got n=%d nnz=%d, want n=%d nnz=%d",
			op, got.n, len(got.val), want.n, len(want.val))
	}
	for i := range want.rowPtr {
		if got.rowPtr[i] != want.rowPtr[i] {
			t.Fatalf("%s: rowPtr[%d] = %d, want %d", op, i, got.rowPtr[i], want.rowPtr[i])
		}
	}
	for i := range want.val {
		if got.colIdx[i] != want.colIdx[i] || got.val[i] != want.val[i] {
			t.Fatalf("%s: entry %d = (%d,%d), want (%d,%d)",
				op, i, got.colIdx[i], got.val[i], want.colIdx[i], want.val[i])
		}
	}
}

func randSigned(rng *rand.Rand, n, nnz int) *Matrix {
	tr := make([]Triple, 0, nnz)
	for i := 0; i < nnz; i++ {
		v := rng.Int63n(7) - 3 // negatives included: deltas cancel
		if v == 0 {
			v = 1
		}
		tr = append(tr, Triple{Row: rng.Intn(n), Col: rng.Intn(n), Val: v})
	}
	return New(n, tr)
}

// TestGenericIntKernelByteIdenticalToFrozen drives every operator the
// evaluator uses through both kernels across many shapes, including
// ones that trip the few-rows and parallel gates.
func TestGenericIntKernelByteIdenticalToFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 500; iter++ {
		n := 2 + rng.Intn(40)
		a := randSigned(rng, n, rng.Intn(4*n)+1)
		b := randSigned(rng, n, rng.Intn(4*n)+1)
		fa, fb := frozenFrom(a), frozenFrom(b)

		byteIdentical(t, "mul", a.Mul(b), fa.mul(fb))
		byteIdentical(t, "add", a.Add(b), fa.merge(fb, 1))
		byteIdentical(t, "sub", a.Sub(b), fa.merge(fb, -1))
		byteIdentical(t, "boolean", a.Boolean(), fa.boolean())
		byteIdentical(t, "diag", a.DiagMulBool(), fa.diagMulBool())
		byteIdentical(t, "transpose", a.Transpose(), fa.transpose())
		byteIdentical(t, "closure", a.BooleanClosure(), fa.closure())
	}

	// Ultra-sparse left operand on a large dimension exercises the
	// few-rows kernel; a forced zero gate exercises the parallel one.
	for iter := 0; iter < 50; iter++ {
		n := 800 + rng.Intn(400)
		d := randSigned(rng, n, rng.Intn(8)+1)
		b := randSigned(rng, n, 6*n)
		fd, fb := frozenFrom(d), frozenFrom(b)
		byteIdentical(t, "fewrows-mul", d.Mul(b), fd.mul(fb))
		byteIdentical(t, "parallel-mul",
			b.MulThresh(b, Thresholds{MinDim: 0, MinNNZ: 0}), fb.mul(fb))
	}

	// Signed products whose rows touch at least n/16 columns take the
	// dense-scan emit, and their cancelling rows leave gaps that the
	// compaction must close; check every worker count.
	for iter := 0; iter < 20; iter++ {
		a, b := randCancellingDense(rng, 300+rng.Intn(300))
		fa, fb := frozenFrom(a), frozenFrom(b)
		want := fa.mul(fb)
		for _, w := range []int{1, 2, 3, 8} {
			byteIdentical(t, "dense-mul", a.mulWorkers(b, w), want)
		}
		byteIdentical(t, "dense-mul-gated", a.Mul(b), want)
	}
}

// randCancellingDense returns signed operands whose product has dense
// rows (touching at least n/16 columns) and cancellation: b repeats a
// block of rows, mostly verbatim, and a pairs each row with its copy
// under opposite signs, so entries of a·b cancel, whole rows included.
func randCancellingDense(rng *rand.Rand, n int) (a, b *Matrix) {
	half := n / 2
	var ta, tb []Triple
	for k := 0; k < half; k++ {
		for i := 0; i < n/12; i++ {
			c, v := rng.Intn(n), rng.Int63n(5)-2
			if v == 0 {
				v = 1
			}
			w := v // most copies match, so their pairs cancel exactly
			if rng.Intn(4) == 0 {
				w++
			}
			tb = append(tb, Triple{Row: k, Col: c, Val: v}, Triple{Row: k + half, Col: c, Val: w})
		}
	}
	for r := 0; r < n; r++ {
		for i := 0; i < 2; i++ {
			k, v := rng.Intn(half), rng.Int63n(3)+1
			ta = append(ta, Triple{Row: r, Col: k, Val: v}, Triple{Row: r, Col: k + half, Val: -v})
		}
		if r%3 == 0 { // a leftover term keeps the row from cancelling in full
			ta = append(ta, Triple{Row: r, Col: rng.Intn(n), Val: 1})
		}
	}
	return New(n, ta), New(n, tb)
}

// TestMulDenseCancellingBranches pins that the randCancellingDense
// inputs above really reach the dense emit and the compaction, and
// that the compacted product keeps no spare capacity.
func TestMulDenseCancellingBranches(t *testing.T) {
	a, b := randCancellingDense(rand.New(rand.NewSource(7)), 400)
	ga, gb := a.gm(), b.gm()
	mark := make([]int32, ga.n)
	dense, bound := 0, 0
	for r := 0; r < ga.n; r++ {
		c := int(gMulRowBound(ga, gb, r, mark))
		bound += c
		if c >= ga.n/denseRowDivisor {
			dense++
		}
	}
	p := a.mulWorkers(b, 2)
	if dense == 0 {
		t.Fatal("no row reaches the dense emit")
	}
	if p.NNZ() >= bound {
		t.Fatalf("nnz %d not below the symbolic bound %d: no cancellation", p.NNZ(), bound)
	}
	if cap(p.colIdx) != p.NNZ() || cap(p.val) != p.NNZ() {
		t.Fatalf("cap(colIdx)=%d cap(val)=%d, want nnz %d", cap(p.colIdx), cap(p.val), p.NNZ())
	}
}

// TestWitnessDenseMulWorkerInvariant checks the annotated ring on dense
// rows: the multi-worker product, the 1-worker product and the
// few-rows kernel agree byte for byte, derivations included.
func TestWitnessDenseMulWorkerInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 512
	a := GLift[Witness](WitnessRing{}, randomMatrix(rng, n, 4*n))
	b := GLift[Witness](WitnessRing{}, randomMatrix(rng, n, 12*n))
	want := gMul(WitnessRing{}, a, b, 1)
	dense := false
	for r := 0; r < n && !dense; r++ {
		dense = want.rowPtr[r+1]-want.rowPtr[r] >= int32(n/denseRowDivisor)
	}
	if !dense {
		t.Fatal("no dense output row")
	}
	sameWitness := func(op string, got *GMatrix[Witness]) {
		t.Helper()
		if !slices.Equal(got.rowPtr, want.rowPtr) || !slices.Equal(got.colIdx, want.colIdx) ||
			!slices.Equal(got.val, want.val) {
			t.Fatalf("%s: witness product differs from the 1-worker kernel", op)
		}
	}
	for _, w := range []int{2, 3, 8} {
		sameWitness("workers", gMul(WitnessRing{}, a, b, w))
	}
	sameWitness("fewrows", gMulFewRows(WitnessRing{}, a, b))
}

// TestGenericIdentityConstructorsMatchFrozen pins the constructors the
// cache and delta paths rely on.
func TestGenericIdentityConstructorsMatchFrozen(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64} {
		byteIdentical(t, "identity", Identity(n), frozenIdentity(n))
	}
	z := Zero(9)
	if z.NNZ() != 0 || z.Dim() != 9 {
		t.Fatalf("Zero(9) = nnz %d dim %d", z.NNZ(), z.Dim())
	}
}
