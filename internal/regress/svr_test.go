package regress

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/stats"
)

// fittedBeta maps the fitted support vectors back onto the training
// rows: β_i for each row of X, zero off the support. Rows must be
// distinct, so each support vector matches one row.
func fittedBeta(t *testing.T, s *SVR, X [][]float64) []float64 {
	t.Helper()
	beta := make([]float64, len(X))
	k := 0
	for i, x := range X {
		if k < len(s.train) && slices.Equal(s.train[k], x) {
			beta[i] = s.beta[k]
			k++
		}
	}
	if k != len(s.train) {
		t.Fatalf("matched %d of %d support vectors to training rows", k, len(s.train))
	}
	return beta
}

// kktViolation recomputes the ε-SVR dual's optimality conditions from
// the fitted function alone. With u_i = y_i − f(x_i), the dual gradient
// gives u_i − ε for α_i and u_i + ε for α*_i, each offset by b. m is
// the largest over the variables that can still rise (α_i < C,
// α*_i > 0), M the smallest over those that can still fall (α_i > 0,
// α*_i < C). gap = m − M, free of b, is the solver's stopping
// criterion; offset = max(m, −M) also holds b to it, since an optimal
// intercept lies in [M, m] before the offset. α_i = max(β_i, 0) and
// α*_i = max(−β_i, 0) because a fit with ε > 0 never leaves both
// positive.
func kktViolation(s *SVR, X [][]float64, y, beta []float64) (gap, offset float64) {
	m, M := math.Inf(-1), math.Inf(1)
	for i, x := range X {
		u := y[i] - s.Predict(x)
		a, as := math.Max(beta[i], 0), math.Max(-beta[i], 0)
		if a < s.C {
			m = math.Max(m, u-s.Epsilon)
		}
		if a > 0 {
			M = math.Min(M, u-s.Epsilon)
		}
		if as > 0 {
			m = math.Max(m, u+s.Epsilon)
		}
		if as < s.C {
			M = math.Min(M, u+s.Epsilon)
		}
	}
	return m - M, math.Max(m, -M)
}

// TestSVRFitIsOptimal checks every fit of a seeded sweep over RBF and
// polynomial kernels, 3 to 40 samples and the paper's C and ε ranges
// against the dual's optimality conditions, recomputed from the fitted
// f and b rather than read from the solver.
func TestSVRFitIsOptimal(t *testing.T) {
	kernels := []Kernel{
		RBF{Sigma: 0.05}, RBF{Sigma: 0.2}, RBF{Sigma: 1},
		Polynomial{Degree: 2, Coef0: 0.5}, Polynomial{Degree: 2, Coef0: 2},
	}
	for seed := int64(1); seed <= 60; seed++ {
		rng := stats.NewRng(seed)
		n := 3 + rng.Intn(38)
		d := 1 + rng.Intn(3)
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			X[i] = make([]float64, d)
			for j := range X[i] {
				X[i][j] = rng.Uniform(0, 1)
			}
			y[i] = 3*math.Sin(4*X[i][0]) + X[i][d-1] + rng.Normal(0, 0.2)
		}
		kern := kernels[int(seed)%len(kernels)]
		s := &SVR{Kernel: kern, C: rng.Uniform(10, 100), Epsilon: rng.Uniform(0.01, 0.1)}
		name := fmt.Sprintf("seed=%d/n=%d/d=%d/%v/C=%.3g/eps=%.3g", seed, n, d, kern, s.C, s.Epsilon)
		if err := s.Fit(X, y); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		beta := fittedBeta(t, s, X)
		var sum float64
		for _, b := range beta {
			if b < -s.C || b > s.C {
				t.Errorf("%s: β = %v outside [-C, C]", name, b)
			}
			sum += b
		}
		if math.Abs(sum) > 1e-12*s.C*float64(n) {
			t.Errorf("%s: Σβ = %v, want 0 up to round-off", name, sum)
		}
		// The solver stops on its own running gradient; the recomputed
		// conditions may differ from it by round-off only.
		gap, offset := kktViolation(s, X, y, beta)
		if gap > defaultSVRTol+1e-9 || offset > defaultSVRTol+1e-9 {
			t.Errorf("%s: KKT violation %v (intercept offset %v) after %d iterations, want ≤ %v",
				name, gap, offset, s.Iterations(), defaultSVRTol)
		}
	}
}

func TestSVRCappedFitIsAnError(t *testing.T) {
	X, y := benchData(48)
	s := &SVR{Kernel: RBF{Sigma: 0.1}, C: 100, Epsilon: 0.05, MaxIter: 1}
	err := s.Fit(X, y)
	if err == nil || !strings.Contains(err.Error(), "did not converge in 1 iterations") {
		t.Fatalf("Fit with MaxIter 1 gave error %v, want a named non-convergence", err)
	}
	s.MaxIter = 0
	if err := s.Fit(X, y); err != nil {
		t.Fatalf("the same problem under the default cap: %v", err)
	}
	if s.Iterations() <= 1 {
		t.Fatalf("converged in %d iterations, want a problem that needs more than 1", s.Iterations())
	}
}
