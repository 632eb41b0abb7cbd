package sparse

// Parallel SpGEMM gating. Gustavson multiplication computes every
// output row independently, so the kernel in kernel.go (gMul) runs its
// symbolic and numeric passes on GOMAXPROCS workers once a product is
// large enough to repay the goroutines, and on one worker below that.
// Each row's output offset is fixed by the symbolic pass, so the
// result is byte-identical whatever the worker count.

const (
	// parallelMinDim and parallelMinNNZ gate the parallel kernel; small
	// products are faster serially.
	parallelMinDim = 512
	parallelMinNNZ = 20000
)

// Thresholds gates the parallel SpGEMM kernel: a product runs on
// GOMAXPROCS workers when the dimension is at least MinDim AND the
// combined operand nnz is at least MinNNZ. Lower values favor
// parallelism on smaller inputs; zero values force the parallel kernel
// for every nonempty product.
type Thresholds struct {
	MinDim int `json:"min_dim"`
	MinNNZ int `json:"min_nnz"`
}

// DefaultThresholds returns the built-in gate used by Mul.
func DefaultThresholds() Thresholds {
	return Thresholds{MinDim: parallelMinDim, MinNNZ: parallelMinNNZ}
}

// MulThresh is Mul with an explicit parallel-kernel gate. The result is
// byte-identical whatever the gate picks. It panics if dimensions differ.
func (m *Matrix) MulThresh(o *Matrix, t Thresholds) *Matrix {
	return wrapInt(GMulThresh(IntRing{}, m.gm(), o.gm(), t))
}
