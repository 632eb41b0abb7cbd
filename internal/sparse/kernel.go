package sparse

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Generic CSR kernel. Every matrix operator is written once here
// against Ring[T]; Matrix (int64) and FloatMatrix (float64) are thin
// defined types over GMatrix instantiations, and the annotated ring
// (WitnessRing) reuses the identical code paths. The kernels
// preserve the canonical-CSR invariant — rows in order, columns
// ascending, no explicit ring zeros — so equal values always have equal
// bytes, which is what the delta-maintenance and replication
// differential harnesses assert.
//
// Mul has one Gustavson kernel, gMul: a symbolic pass sizes every
// output row, a numeric pass writes rows straight to their offsets, and
// both passes run on one worker or many with byte-identical output.
// gMulFewRows covers ultra-sparse left operands such as commit deltas.
//
// Semiring-dependent operators are free functions taking the ring
// explicitly (Go methods cannot add type parameters); structurally
// generic ones (Transpose, Grow, accessors) are methods.

// GMatrix is an immutable n×n sparse matrix over an arbitrary entry
// type in CSR form. The zero value is an empty 0×0 matrix.
type GMatrix[T any] struct {
	n      int
	rowPtr []int32 // length n+1
	colIdx []int32 // length nnz
	val    []T     // length nnz
}

// Dim returns the dimension n of the n×n matrix.
func (m *GMatrix[T]) Dim() int { return m.n }

// NNZ returns the number of stored entries.
func (m *GMatrix[T]) NNZ() int { return len(m.val) }

// Lookup returns the stored entry at (row, col) and whether one exists.
// It is O(log nnz(row)).
func (m *GMatrix[T]) Lookup(row, col int) (T, bool) {
	var zero T
	if row < 0 || row >= m.n || col < 0 || col >= m.n {
		panic(fmt.Sprintf("sparse: Lookup(%d,%d) out of range for n=%d", row, col, m.n))
	}
	lo, hi := int(m.rowPtr[row]), int(m.rowPtr[row+1])
	i := sort.Search(hi-lo, func(k int) bool { return m.colIdx[lo+k] >= int32(col) }) + lo
	if i < hi && m.colIdx[i] == int32(col) {
		return m.val[i], true
	}
	return zero, false
}

// Row calls fn(col, val) for each stored entry in the given row, in
// ascending column order.
func (m *GMatrix[T]) Row(row int, fn func(col int, val T)) {
	for i := m.rowPtr[row]; i < m.rowPtr[row+1]; i++ {
		fn(int(m.colIdx[i]), m.val[i])
	}
}

// Each calls fn(row, col, val) for every stored entry in row-major order.
func (m *GMatrix[T]) Each(fn func(row, col int, val T)) {
	for r := 0; r < m.n; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			fn(r, int(m.colIdx[i]), m.val[i])
		}
	}
}

// Transpose returns mᵀ by counting sort; it is semiring-free and
// annotation-preserving (vias are contraction indices, not positions).
func (m *GMatrix[T]) Transpose() *GMatrix[T] {
	t := &GMatrix[T]{
		n:      m.n,
		rowPtr: make([]int32, m.n+1),
		colIdx: make([]int32, len(m.colIdx)),
		val:    make([]T, len(m.val)),
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

// Grow returns m embedded in the top-left corner of an n×n matrix,
// sharing the entry arrays. It panics if n is smaller than m's
// dimension.
func (m *GMatrix[T]) Grow(n int) *GMatrix[T] {
	if n == m.n {
		return m
	}
	if n < m.n {
		panic(fmt.Sprintf("sparse: Grow from %d to smaller %d", m.n, n))
	}
	rp := make([]int32, n+1)
	copy(rp, m.rowPtr)
	for r := m.n; r < n; r++ {
		rp[r+1] = rp[m.n]
	}
	return &GMatrix[T]{n: n, rowPtr: rp, colIdx: m.colIdx, val: m.val}
}

// GZero returns the n×n all-zero matrix.
func GZero[T any](n int) *GMatrix[T] {
	return &GMatrix[T]{n: n, rowPtr: make([]int32, n+1)}
}

// GIdentity returns the n×n identity of the ring.
func GIdentity[T any, R Ring[T]](ring R, n int) *GMatrix[T] {
	m := &GMatrix[T]{
		n:      n,
		rowPtr: make([]int32, n+1),
		colIdx: make([]int32, n),
		val:    make([]T, n),
	}
	one := ring.One()
	for i := 0; i < n; i++ {
		m.rowPtr[i+1] = int32(i + 1)
		m.colIdx[i] = int32(i)
		m.val[i] = one
	}
	return m
}

// GLift maps an integer matrix into the ring entry-wise via Lift,
// dropping entries that lift to zero. This is how base adjacency
// matrices enter an annotated evaluation.
func GLift[T any, R Ring[T]](ring R, m *Matrix) *GMatrix[T] {
	g := &GMatrix[T]{n: m.n, rowPtr: make([]int32, m.n+1)}
	g.colIdx = make([]int32, 0, len(m.val))
	g.val = make([]T, 0, len(m.val))
	for r := 0; r < m.n; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			v := ring.Lift(m.val[i])
			if !ring.IsZero(v) {
				g.colIdx = append(g.colIdx, m.colIdx[i])
				g.val = append(g.val, v)
			}
		}
		g.rowPtr[r+1] = int32(len(g.colIdx))
	}
	return g
}

// GAdd returns m ⊕ o element-wise, dropping entries that sum to the
// ring zero. It panics if dimensions differ.
func GAdd[T any, R Ring[T]](ring R, m, o *GMatrix[T]) *GMatrix[T] {
	if m.n != o.n {
		panic(fmt.Sprintf("sparse: Add dimension mismatch %d vs %d", m.n, o.n))
	}
	s := &GMatrix[T]{n: m.n, rowPtr: make([]int32, m.n+1)}
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
				s.val = append(s.val, o.val[j])
				j++
			default:
				if v := ring.Add(m.val[i], o.val[j]); !ring.IsZero(v) {
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

// GSub returns m − o element-wise for subtractive rings. Entries that
// cancel exactly are dropped, never stored as explicit zeros. It panics
// if dimensions differ.
func GSub[T any, R Subtractive[T]](ring R, m, o *GMatrix[T]) *GMatrix[T] {
	if m.n != o.n {
		panic(fmt.Sprintf("sparse: Sub dimension mismatch %d vs %d", m.n, o.n))
	}
	zero := ring.Zero()
	s := &GMatrix[T]{n: m.n, rowPtr: make([]int32, m.n+1)}
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
				s.val = append(s.val, ring.Sub(zero, o.val[j]))
				j++
			default:
				if v := ring.Sub(m.val[i], o.val[j]); !ring.IsZero(v) {
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

// GBoolean returns the boolean collapse of m: each truthy entry maps
// through Collapse, everything else is dropped.
func GBoolean[T any, R Ring[T]](ring R, m *GMatrix[T]) *GMatrix[T] {
	b := &GMatrix[T]{n: m.n, rowPtr: make([]int32, m.n+1)}
	for r := 0; r < m.n; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			if ring.Truthy(m.val[i]) {
				b.colIdx = append(b.colIdx, m.colIdx[i])
				b.val = append(b.val, ring.Collapse(m.val[i]))
			}
		}
		b.rowPtr[r+1] = int32(len(b.colIdx))
	}
	return b
}

// GDiagMulBool returns diag{ m · (mᵀ > 0) } computed directly as the
// per-row sum of truthy entries (paper §4.3, M_{[p]}).
func GDiagMulBool[T any, R Ring[T]](ring R, m *GMatrix[T]) *GMatrix[T] {
	d := &GMatrix[T]{n: m.n, rowPtr: make([]int32, m.n+1)}
	for r := 0; r < m.n; r++ {
		sum := ring.Zero()
		any := false
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			if ring.Truthy(m.val[i]) {
				sum = ring.Add(sum, m.val[i])
				any = true
			}
		}
		if any && !ring.IsZero(sum) {
			d.colIdx = append(d.colIdx, int32(r))
			d.val = append(d.val, sum)
		}
		d.rowPtr[r+1] = int32(len(d.colIdx))
	}
	return d
}

// GMulThresh returns the matrix product m·o under the ring. An
// ultra-sparse left operand goes to the few-rows kernel; everything
// else runs the two-pass Gustavson kernel, on GOMAXPROCS workers when
// the product passes the Thresholds gate and on one otherwise. Every
// path returns byte-identical results; the gate only picks the fastest.
// It panics if dimensions differ.
func GMulThresh[T any, R Ring[T]](ring R, m, o *GMatrix[T], t Thresholds) *GMatrix[T] {
	if m.n != o.n {
		panic(fmt.Sprintf("sparse: Mul dimension mismatch %d vs %d", m.n, o.n))
	}
	if len(m.val) == 0 {
		return GZero[T](m.n)
	}
	// Ultra-sparse left operand (a commit delta, typically): nnz bounds
	// the number of nonzero rows, so visit only those rows instead of a
	// full Gustavson pass with an O(n) dense scratch row.
	if len(m.val)*fewRowsRatio <= m.n {
		return gMulFewRows(ring, m, o)
	}
	workers := 1
	if m.n >= t.MinDim && len(m.val)+len(o.val) >= t.MinNNZ {
		workers = runtime.GOMAXPROCS(0)
	}
	return gMul(ring, m, o, workers)
}

const (
	// mulBlockRows is the number of consecutive rows a worker claims at
	// a time. Both passes hand out blocks from a shared counter, so a
	// worker that drew heavy rows does not hold up the rest.
	mulBlockRows = 64
	// denseRowDivisor picks how a row's touched columns are put in
	// order: a row touching at least n/denseRowDivisor of them scans
	// its column range — at most denseRowDivisor slots per touched
	// column — instead of sorting its touched list.
	denseRowDivisor = 16
)

// gMul is the Gustavson kernel, run on up to workers goroutines. A
// symbolic pass counts the distinct columns each output row touches,
// an upper bound on its nnz; a prefix sum turns the counts into row
// offsets, so colIdx and val are allocated once and the numeric pass
// writes every row straight to its place. Rows are computed
// independently, in the same accumulation order whatever the worker
// count, so the result is byte-identical for any workers ≥ 1.
func gMul[T any, R Ring[T]](ring R, m, o *GMatrix[T], workers int) *GMatrix[T] {
	n := m.n
	workers = max(1, min(workers, (n+mulBlockRows-1)/mulBlockRows))
	rowPtr := make([]int32, n+1)
	rowNNZ := make([]int32, n) // symbolic bound, then the count written

	scratch := make([]mulScratch[T], workers)
	forRowBlocks(n, workers, func(w, lo, hi int) {
		s := scratch[w].ready(n)
		for r := lo; r < hi; r++ {
			rowNNZ[r] = gMulRowBound(m, o, r, s.mark)
		}
	})

	total := 0
	for r, c := range rowNNZ {
		total += int(c)
		if total > math.MaxInt32 {
			panic(fmt.Sprintf("sparse: Mul output bound %d exceeds int32 offsets", total))
		}
		rowPtr[r+1] = int32(total)
	}
	colIdx := make([]int32, total)
	val := make([]T, total)

	forRowBlocks(n, workers, func(w, lo, hi int) {
		s := scratch[w].ready(n)
		for r := lo; r < hi; r++ {
			if out := rowPtr[r]; rowNNZ[r] > 0 {
				rowNNZ[r] = gMulRow(ring, m, o, r, s, colIdx[out:], val[out:])
			}
		}
	})

	// Ring cancellation can leave rows short of their bound; close the
	// gaps into exact-size arrays so a cached product holds nnz entries.
	nnz := 0
	for _, c := range rowNNZ {
		nnz += int(c)
	}
	if nnz < total {
		ci, v := make([]int32, nnz), make([]T, nnz)
		pos := int32(0)
		for r, c := range rowNNZ {
			from := rowPtr[r]
			copy(ci[pos:pos+c], colIdx[from:from+c])
			copy(v[pos:pos+c], val[from:from+c])
			rowPtr[r] = pos
			pos += c
		}
		rowPtr[n] = pos
		colIdx, val = ci, v
	}
	return &GMatrix[T]{n: n, rowPtr: rowPtr, colIdx: colIdx, val: val}
}

// forRowBlocks calls fn(w, lo, hi) over [0, n) in blocks of
// mulBlockRows rows claimed from a shared counter by workers
// goroutines, and returns once every block is done. w identifies the
// calling worker, so fn may keep per-worker scratch indexed by it.
func forRowBlocks(n, workers int, fn func(w, lo, hi int)) {
	if workers == 1 {
		fn(0, 0, n)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(mulBlockRows)) - mulBlockRows
				if lo >= n {
					return
				}
				fn(w, lo, min(lo+mulBlockRows, n))
			}
		}()
	}
	wg.Wait()
}

// mulScratch is one worker's scratch space, reused for every row the
// worker claims.
type mulScratch[T any] struct {
	mark    []int32 // per-column stamp of the row that last touched it
	acc     []T     // dense accumulator, all ring zero between rows
	touched []int32 // the current row's touched columns
}

// ready allocates the scratch for dimension n on first use.
func (s *mulScratch[T]) ready(n int) *mulScratch[T] {
	if s.mark == nil {
		s.mark, s.acc = make([]int32, n), make([]T, n)
	}
	return s
}

// gMulRowBound counts the distinct columns row r of m·o touches. mark
// is the worker's stamp array: a column is new to row r while its mark
// is not r+1, so the array is never cleared between rows. gMulRow
// stamps with −(r+1), so the two passes can share the array.
func gMulRowBound[T any](m, o *GMatrix[T], r int, mark []int32) int32 {
	lo, hi := m.rowPtr[r], m.rowPtr[r+1]
	if hi-lo == 1 { // one contraction index: o's row columns are distinct
		k := m.colIdx[lo]
		return o.rowPtr[k+1] - o.rowPtr[k]
	}
	stamp := int32(r + 1)
	var count int32
	for _, k := range m.colIdx[lo:hi] {
		for _, c := range o.colIdx[o.rowPtr[k]:o.rowPtr[k+1]] {
			if mark[c] != stamp {
				mark[c] = stamp
				count++
			}
		}
	}
	return count
}

// gMulRow computes row r of m·o into s.acc, writes its nonzero entries
// in ascending column order to the front of colIdx and val, and returns
// how many it wrote, leaving s.acc all zero. A row touching at least
// n/denseRowDivisor columns is put in column order by scanning the
// marks across its [min, max] column range, which needs no sort; the
// scan's conditional increment compiles without a branch, so a random
// mix of touched and untouched columns costs no mispredictions.
// Narrower rows sort their touched list.
func gMulRow[T any, R Ring[T]](ring R, m, o *GMatrix[T], r int, s *mulScratch[T], colIdx []int32, val []T) int32 {
	stamp := -int32(r + 1)
	mark, acc, touched := s.mark, s.acc, s.touched[:0]
	first, last := int32(len(acc)), int32(-1)
	for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
		k, mv := m.colIdx[i], m.val[i]
		lo, hi := o.rowPtr[k], o.rowPtr[k+1]
		if lo == hi {
			continue
		}
		first, last = min(first, o.colIdx[lo]), max(last, o.colIdx[hi-1])
		for j := lo; j < hi; j++ {
			c := o.colIdx[j]
			if mark[c] != stamp {
				mark[c] = stamp
				touched = append(touched, c)
			}
			acc[c] = ring.Add(acc[c], ring.MulVia(mv, k, o.val[j]))
		}
	}
	if len(touched) >= len(acc)/denseRowDivisor {
		touched = append(touched, 0) // slack: the scan stores one slot ahead
		t := 0
		for c := first; c <= last; c++ {
			touched[t] = c
			if mark[c] == stamp {
				t++
			}
		}
		touched = touched[:t]
	} else {
		slices.Sort(touched)
	}
	zero := ring.Zero()
	var n int32
	for _, c := range touched {
		if v := acc[c]; !ring.IsZero(v) {
			colIdx[n] = c
			val[n] = v
			n++
		}
		acc[c] = zero
	}
	s.touched = touched
	return n
}

// gMulFewRows multiplies m·o visiting only m's nonzero rows with a hash
// accumulator instead of a dense scratch row; output is identical to
// gMul's.
func gMulFewRows[T any, R Ring[T]](ring R, m, o *GMatrix[T]) *GMatrix[T] {
	p := &GMatrix[T]{n: m.n, rowPtr: make([]int32, m.n+1)}
	acc := make(map[int32]T, 64)
	cols := make([]int32, 0, 64)
	prev := 0
	for r := 0; r < m.n; r++ {
		if m.rowPtr[r] == m.rowPtr[r+1] {
			continue
		}
		for fill := prev; fill < r; fill++ {
			p.rowPtr[fill+1] = int32(len(p.colIdx))
		}
		cols = cols[:0]
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			k := m.colIdx[i]
			mv := m.val[i]
			for j := o.rowPtr[k]; j < o.rowPtr[k+1]; j++ {
				c := o.colIdx[j]
				cur, ok := acc[c]
				if !ok {
					cols = append(cols, c)
					cur = ring.Zero()
				}
				acc[c] = ring.Add(cur, ring.MulVia(mv, k, o.val[j]))
			}
		}
		slices.Sort(cols)
		for _, c := range cols {
			if v := acc[c]; !ring.IsZero(v) {
				p.colIdx = append(p.colIdx, c)
				p.val = append(p.val, v)
			}
			delete(acc, c)
		}
		p.rowPtr[r+1] = int32(len(p.colIdx))
		prev = r + 1
	}
	for r := prev; r < m.n; r++ {
		p.rowPtr[r+1] = int32(len(p.colIdx))
	}
	return p
}

// GIdentityRange returns the n×n matrix with ring ones on the diagonal
// at rows [lo, hi) and zeros elsewhere. It panics on an invalid range.
func GIdentityRange[T any, R Ring[T]](ring R, n, lo, hi int) *GMatrix[T] {
	if lo < 0 || hi < lo || hi > n {
		panic(fmt.Sprintf("sparse: IdentityRange [%d,%d) out of range for n=%d", lo, hi, n))
	}
	m := &GMatrix[T]{
		n:      n,
		rowPtr: make([]int32, n+1),
		colIdx: make([]int32, hi-lo),
		val:    make([]T, hi-lo),
	}
	one := ring.One()
	for r := lo; r < hi; r++ {
		m.colIdx[r-lo] = int32(r)
		m.val[r-lo] = one
		m.rowPtr[r+1] = int32(r - lo + 1)
	}
	for r := hi; r < n; r++ {
		m.rowPtr[r+1] = m.rowPtr[hi]
	}
	return m
}

// SameSupport reports whether m and o have stored entries at exactly
// the same positions, ignoring values.
func SameSupport[T, U any](m *GMatrix[T], o *GMatrix[U]) bool {
	if m.n != o.n || len(m.colIdx) != len(o.colIdx) {
		return false
	}
	for i := range m.rowPtr {
		if m.rowPtr[i] != o.rowPtr[i] {
			return false
		}
	}
	for i := range m.colIdx {
		if m.colIdx[i] != o.colIdx[i] {
			return false
		}
	}
	return true
}

// GBooleanClosure returns the reflexive-transitive boolean closure of m
// by repeated squaring, each square computed by mul. Convergence is
// detected on the support (the set of truthy positions), not on values:
// boolean-collapsed integer matrices carry only ones, so for IntRing
// this is value equality, while annotation rings — whose derivation
// depths keep growing with every squaring — still terminate the moment
// reachability stabilizes. Callers pass their own product so squarings
// share their gate, cancellation and product accounting.
func GBooleanClosure[T any, R Ring[T]](ring R, m *GMatrix[T], mul func(a, b *GMatrix[T]) *GMatrix[T]) *GMatrix[T] {
	cur := GBoolean(ring, GAdd(ring, GIdentity[T](ring, m.n), GBoolean(ring, m)))
	for {
		next := GBoolean(ring, mul(cur, cur))
		if SameSupport(next, cur) {
			return cur
		}
		cur = next
	}
}
