package regress

import (
	"fmt"
	"math"
)

// SVR is ε-insensitive support vector regression, the model family the
// paper finds most accurate for both step-time (Table II) and
// checkpoint-time (Table IV) prediction.
//
// The dual is solved by exact coordinate descent on the
// bias-augmented kernel K'(a,b) = K(a,b) + 1, which absorbs the
// intercept into the RKHS and removes the equality constraint, leaving
// a box-constrained concave quadratic that coordinate descent solves
// to optimality. The fitted model is
//
//	f(x) = Σ_i β_i (K(x_i, x) + 1),  β_i ∈ [-C, C],
//
// where non-zero β_i identify the support vectors (the α_i − α*_i of
// the paper's Eqs. 2–3).
type SVR struct {
	// Kernel is the similarity function; required.
	Kernel Kernel
	// C is the penalty (the paper's p, grid-searched over [10, 100]).
	C float64
	// Epsilon is the insensitivity width (grid-searched over
	// [0.01, 0.1]).
	Epsilon float64
	// MaxIter bounds coordinate-descent sweeps (default 1000).
	MaxIter int
	// Tol is the convergence threshold on the largest coefficient
	// change in a sweep (default 1e-6).
	Tol float64

	beta   []float64
	train  [][]float64
	fitted bool
}

var _ Regressor = (*SVR)(nil)

// Fit trains the model on X, y.
func (s *SVR) Fit(X [][]float64, y []float64) error {
	if s.Kernel == nil {
		return fmt.Errorf("regress: SVR requires a kernel")
	}
	if s.C <= 0 {
		return fmt.Errorf("regress: SVR penalty C=%v must be positive", s.C)
	}
	if s.Epsilon < 0 {
		return fmt.Errorf("regress: SVR epsilon %v must be non-negative", s.Epsilon)
	}
	n, _, err := checkMatrix(X, y)
	if err != nil {
		return err
	}
	maxIter := s.MaxIter
	if maxIter == 0 {
		maxIter = 1000
	}
	tol := s.Tol
	if tol == 0 {
		tol = 1e-6
	}

	// Precompute the bias-augmented Gram matrix, row-major in one
	// n·n slice.
	gram := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := s.Kernel.Eval(X[i], X[j]) + 1
			gram[i*n+j] = v
			gram[j*n+i] = v
		}
	}

	beta := make([]float64, n)
	// f holds the current prediction at each training point.
	f := make([]float64, n)
	for iter := 0; iter < maxIter; iter++ {
		var maxDelta float64
		for i := 0; i < n; i++ {
			row := gram[i*n : (i+1)*n]
			kii := row[i]
			if kii <= 0 {
				return fmt.Errorf("regress: kernel is not positive on sample %d", i)
			}
			// Residual excluding i's own contribution.
			r := y[i] - (f[i] - beta[i]*kii)
			// Maximize the dual in β_i alone: soft-threshold by ε,
			// scale by K'_ii, clip to the box.
			var next float64
			switch {
			case r > s.Epsilon:
				next = (r - s.Epsilon) / kii
			case r < -s.Epsilon:
				next = (r + s.Epsilon) / kii
			default:
				next = 0
			}
			next = clamp(next, -s.C, s.C)
			delta := next - beta[i]
			if delta == 0 {
				continue
			}
			beta[i] = next
			axpy(delta, row, f)
			if ad := math.Abs(delta); ad > maxDelta {
				maxDelta = ad
			}
		}
		if maxDelta < tol {
			break
		}
	}

	// Retain only support vectors for prediction.
	s.beta = s.beta[:0]
	s.train = s.train[:0]
	for i, b := range beta {
		if b != 0 {
			s.beta = append(s.beta, b)
			row := make([]float64, len(X[i]))
			copy(row, X[i])
			s.train = append(s.train, row)
		}
	}
	s.fitted = true
	return nil
}

// Predict evaluates the fitted function.
func (s *SVR) Predict(x []float64) float64 {
	if !s.fitted {
		panic("regress: SVR.Predict before Fit")
	}
	var out float64
	for i, sv := range s.train {
		out += s.beta[i] * (s.Kernel.Eval(sv, x) + 1)
	}
	return out
}

// SupportVectors returns how many training points carry non-zero dual
// weight.
func (s *SVR) SupportVectors() int { return len(s.beta) }

// axpy adds a·x to y element-wise: each y[j] gets exactly one
// += a*x[j], so unrolling by four changes no result bit. Re-slicing y
// to len(x) and x, y to each four-wide window lets the compiler drop
// the per-element bounds checks.
func axpy(a float64, x, y []float64) {
	y = y[:len(x)]
	j := 0
	for ; j+4 <= len(x); j += 4 {
		xs, ys := x[j:j+4:j+4], y[j:j+4:j+4]
		ys[0] += a * xs[0]
		ys[1] += a * xs[1]
		ys[2] += a * xs[2]
		ys[3] += a * xs[3]
	}
	for ; j < len(x); j++ {
		y[j] += a * x[j]
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
