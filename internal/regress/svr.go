package regress

import (
	"fmt"
	"math"
)

// DefaultSVRMaxIter is the SMO iteration cap an SVR with a zero
// MaxIter uses. The largest fit the repository's experiments run
// converges in ~25k iterations, so the cap sits 40x above it and only
// stops a fit that will not converge.
const DefaultSVRMaxIter = 1_000_000

const (
	// defaultSVRTol is LIBSVM's and scikit-learn's default stopping
	// tolerance.
	defaultSVRTol = 1e-3
	// smoTau replaces a non-positive curvature in a pair update, as
	// LIBSVM's TAU does.
	smoTau = 1e-12
)

// SVR is ε-insensitive support vector regression, the model family the
// paper finds most accurate for both step-time (Table II) and
// checkpoint-time (Table IV) prediction.
//
// Fit solves LIBSVM's ε-SVR dual, the formulation scikit-learn's SVR
// uses: over α, α* ∈ [0, C]ⁿ with Σ(α−α*) = 0, minimize
//
//	½ (α−α*)ᵀ K (α−α*) + ε Σ(α+α*) − yᵀ(α−α*)
//
// by sequential minimal optimization with second-order working-set
// selection (Fan, Chen & Lin, JMLR 2005). Each iteration picks the
// maximal-violating variable i, pairs it with the j whose analytic
// pair step gains most, and updates the gradient from the two kernel
// rows in O(n). The solver stops when the maximal KKT violation
// m(α) − M(α) falls below Tol. The fitted model is
//
//	f(x) = Σ_i β_i K(x_i, x) + b,  β_i = α_i − α*_i ∈ [-C, C],
//
// with an unregularized intercept b computed LIBSVM's way. Non-zero β_i
// identify the support vectors (the α_i − α*_i of the paper's
// Eqs. 2–3).
type SVR struct {
	// Kernel is the similarity function; required.
	Kernel Kernel
	// C is the penalty (the paper's p, grid-searched over [10, 100]).
	C float64
	// Epsilon is the insensitivity width (grid-searched over
	// [0.01, 0.1]).
	Epsilon float64
	// MaxIter bounds SMO iterations (default DefaultSVRMaxIter). A fit
	// that reaches it returns an error naming the count.
	MaxIter int
	// Tol is the stopping threshold on the maximal KKT violation
	// m(α) − M(α), in target units (default 1e-3, LIBSVM's and
	// scikit-learn's default).
	Tol float64

	beta   []float64
	bias   float64
	train  [][]float64
	iters  int
	fitted bool
}

var _ Regressor = (*SVR)(nil)

// Fit trains the model on X, y. It returns an error if the solver
// reaches MaxIter before the KKT violation falls below Tol.
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
	n, d, err := checkMatrix(X, y)
	if err != nil {
		return err
	}
	maxIter := s.MaxIter
	if maxIter == 0 {
		maxIter = DefaultSVRMaxIter
	}
	tol := s.Tol
	if tol == 0 {
		tol = defaultSVRTol
	}

	// The Gram matrix, row-major in one n·n slice. A positive
	// semi-definite kernel has K(x, x) ≥ 0.
	gram := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := s.Kernel.Eval(X[i], X[j])
			gram[i*n+j] = v
			gram[j*n+i] = v
		}
		if kii := gram[i*n+i]; kii < 0 {
			return fmt.Errorf("regress: kernel is not positive semi-definite on sample %d: K(x, x) = %v", i, kii)
		}
	}

	// The 2n dual variables: t < n is α_t (label +1), t ≥ n is
	// α*_{t−n} (label −1). grad is the gradient of the dual objective,
	// which at α = α* = 0 is ε − y for α and ε + y for α*.
	work := make([]float64, 5*n)
	alpha, grad, diag := work[:2*n], work[2*n:4*n], work[4*n:]
	for t := 0; t < n; t++ {
		grad[t] = s.Epsilon - y[t]
		grad[t+n] = s.Epsilon + y[t]
		diag[t] = gram[t*n+t]
	}
	c := s.C
	for iter := 0; ; iter++ {
		i, j, gap := selectPair(alpha, grad, diag, gram, c)
		if j < 0 || gap < tol {
			s.iters = iter
			break
		}
		if iter == maxIter {
			return fmt.Errorf("regress: SVR did not converge in %d iterations (KKT violation %.3g, tol %g)", maxIter, gap, tol)
		}
		smoStep(alpha, grad, diag, gram, i, j, c)
	}

	// Keep only support vectors for prediction, their rows in one
	// backing slice.
	nsv := 0
	for t := 0; t < n; t++ {
		if alpha[t] != alpha[t+n] {
			nsv++
		}
	}
	s.beta = make([]float64, 0, nsv)
	s.train = make([][]float64, 0, nsv)
	rows := make([]float64, nsv*d)
	for t := 0; t < n; t++ {
		if b := alpha[t] - alpha[t+n]; b != 0 {
			row := rows[:d:d]
			rows = rows[d:]
			copy(row, X[t])
			s.beta = append(s.beta, b)
			s.train = append(s.train, row)
		}
	}
	s.bias = -smoRho(alpha, grad, c)
	s.fitted = true
	return nil
}

// smoStep takes the analytic step on the pair (i, j), clips it to the
// box as LIBSVM's Solver::Solve does for equal bounds C, and adds the
// step's effect to the gradient from the two kernel rows in one loop.
func smoStep(alpha, grad, diag, gram []float64, i, j int, c float64) {
	n := len(diag)
	si, sj := 1.0, 1.0
	ii, jj := i, j
	if i >= n {
		si, ii = -1, i-n
	}
	if j >= n {
		sj, jj = -1, j-n
	}
	ki, kj := gram[ii*n:(ii+1)*n], gram[jj*n:(jj+1)*n]
	q := diag[ii] + diag[jj] - 2*ki[jj]
	if q <= 0 {
		q = smoTau
	}
	ai, aj := alpha[i], alpha[j]
	if si != sj {
		delta := (-grad[i] - grad[j]) / q
		diff := ai - aj
		ai += delta
		aj += delta
		if diff > 0 {
			if aj < 0 {
				aj, ai = 0, diff
			}
			if ai > c {
				ai, aj = c, c-diff
			}
		} else {
			if ai < 0 {
				ai, aj = 0, -diff
			}
			if aj > c {
				aj, ai = c, c+diff
			}
		}
	} else {
		delta := (grad[i] - grad[j]) / q
		sum := ai + aj
		ai -= delta
		aj += delta
		if sum > c {
			if ai > c {
				ai, aj = c, sum-c
			}
			if aj > c {
				aj, ai = c, sum-c
			}
		} else {
			if aj < 0 {
				aj, ai = 0, sum
			}
			if ai < 0 {
				ai, aj = 0, sum
			}
		}
	}
	di, dj := si*(ai-alpha[i]), sj*(aj-alpha[j])
	alpha[i], alpha[j] = ai, aj
	gp, gm := grad[:n], grad[n:2*n]
	kj = kj[:len(ki)]
	for t, kit := range ki {
		v := di*kit + dj*kj[t]
		gp[t] += v
		gm[t] -= v
	}
}

// selectPair is LIBSVM's second-order working-set selection over the
// 2n variables. i maximizes the violation −s_t·G_t over variables that
// can move up in s_t·α_t; j is the variable, among those that can move
// down, whose pair step with i decreases the objective most,
// gd²/q with q = K_ii + K_jj − 2K_ij. The candidates are compared as
// gd²·q_best ≥ gd_best²·q, free of a division per candidate. gap is
// m(α) − M(α); j < 0 when no pair can improve the objective.
func selectPair(alpha, grad, diag, gram []float64, c float64) (i, j int, gap float64) {
	n := len(diag)
	ap, am := alpha[:n], alpha[n:2*n]
	gp, gm := grad[:n], grad[n:2*n]
	gmax, gmax2 := math.Inf(-1), math.Inf(-1)
	i, j = -1, -1
	for t, a := range ap {
		if a < c && -gp[t] >= gmax {
			gmax, i = -gp[t], t
		}
	}
	for t, a := range am {
		if a > 0 && gm[t] >= gmax {
			gmax, i = gm[t], t+n
		}
	}
	if i < 0 {
		return i, j, math.Inf(-1)
	}
	ii := i
	if ii >= n {
		ii -= n
	}
	ki := gram[ii*n : (ii+1)*n]
	kii := diag[ii]
	var bestGD2, bestQ float64
	for t, a := range ap {
		if a <= 0 {
			continue
		}
		g := gp[t]
		if g >= gmax2 {
			gmax2 = g
		}
		if gd := gmax + g; gd > 0 {
			q := kii + diag[t] - 2*ki[t]
			if q <= 0 {
				q = smoTau
			}
			if gd2 := gd * gd; j < 0 || gd2*bestQ >= bestGD2*q {
				j, bestGD2, bestQ = t, gd2, q
			}
		}
	}
	for t, a := range am {
		if a >= c {
			continue
		}
		g := -gm[t]
		if g >= gmax2 {
			gmax2 = g
		}
		if gd := gmax + g; gd > 0 {
			q := kii + diag[t] - 2*ki[t]
			if q <= 0 {
				q = smoTau
			}
			if gd2 := gd * gd; j < 0 || gd2*bestQ >= bestGD2*q {
				j, bestGD2, bestQ = t+n, gd2, q
			}
		}
	}
	return i, j, gmax + gmax2
}

// smoRho is LIBSVM's ρ, the negated intercept: the mean of s_t·G_t
// over free variables, or the midpoint of the bounds the bounded
// variables put on it when none is free.
func smoRho(alpha, grad []float64, c float64) float64 {
	n := len(alpha) / 2
	ub, lb := math.Inf(1), math.Inf(-1)
	var sumFree float64
	nFree := 0
	for t, a := range alpha {
		// pos: t is an α, label +1; s_t·G_t flips sign for α*.
		yg, pos := grad[t], t < n
		if !pos {
			yg = -yg
		}
		switch {
		case a >= c && pos, a <= 0 && !pos:
			lb = math.Max(lb, yg)
		case a >= c, a <= 0:
			ub = math.Min(ub, yg)
		default:
			nFree++
			sumFree += yg
		}
	}
	if nFree > 0 {
		return sumFree / float64(nFree)
	}
	return (ub + lb) / 2
}

// Predict evaluates the fitted function.
func (s *SVR) Predict(x []float64) float64 {
	if !s.fitted {
		panic("regress: SVR.Predict before Fit")
	}
	var out float64
	for i, sv := range s.train {
		out += s.beta[i] * s.Kernel.Eval(sv, x)
	}
	return out + s.bias
}

// SupportVectors returns how many training points carry non-zero dual
// weight.
func (s *SVR) SupportVectors() int { return len(s.beta) }

// Iterations returns how many SMO iterations the last successful Fit
// took.
func (s *SVR) Iterations() int { return s.iters }
