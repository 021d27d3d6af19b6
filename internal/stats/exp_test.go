package stats

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/big"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// refPrec is the working precision of the math/big reference: far past
// float64's 53 bits, so the reference's own error never shows in an ulp
// count.
const refPrec = 320

var refLn2 = func() *big.Float {
	// ln 2 = 2·atanh(1/3) = 2·Σ 1/((2n+1)·3**(2n+1)).
	sum := new(big.Float).SetPrec(refPrec)
	pow := new(big.Float).SetPrec(refPrec).SetInt64(3) // 3**(2n+1)
	term := new(big.Float).SetPrec(refPrec)
	for n := int64(0); n < 220; n++ {
		term.SetInt64(2*n + 1)
		term.Mul(term, pow)
		term.Quo(big.NewFloat(2).SetPrec(refPrec), term)
		sum.Add(sum, term)
		pow.Mul(pow, big.NewFloat(9))
	}
	return sum
}()

// bigExp returns e**x to refPrec bits: x = k·ln2 + r, e**r by its
// Taylor series on r/2**16, squared back up sixteen times.
func bigExp(x float64) *big.Float {
	k := math.Round(x / math.Ln2)
	r := new(big.Float).SetPrec(refPrec).SetFloat64(x)
	kl := new(big.Float).SetPrec(refPrec).SetFloat64(k)
	kl.Mul(kl, refLn2)
	r.Sub(r, kl)
	r.SetMantExp(r, -16)
	sum := new(big.Float).SetPrec(refPrec).SetInt64(1)
	term := new(big.Float).SetPrec(refPrec).SetInt64(1)
	for n := int64(1); n < 40; n++ {
		term.Mul(term, r)
		term.Quo(term, new(big.Float).SetPrec(refPrec).SetInt64(n))
		sum.Add(sum, term)
	}
	for i := 0; i < 16; i++ {
		sum.Mul(sum, sum)
	}
	return sum.SetMantExp(sum, int(k))
}

// ulpError returns |y − ref| in units of the last place of ref's
// binade, floored at the smallest subnormal's spacing.
func ulpError(y float64, ref *big.Float) float64 {
	ulpExp := ref.MantExp(nil) - 53 // ref ∈ [2**(e−1), 2**e)
	if ulpExp < -1074 {
		ulpExp = -1074
	}
	d := new(big.Float).SetPrec(refPrec).SetFloat64(y)
	d.Sub(d, ref)
	d.Abs(d)
	d.SetMantExp(d, -ulpExp)
	f, _ := d.Float64()
	return f
}

// TestExpWithinOneUlp sweeps the finite range densely against the
// math/big reference: uniform over the whole domain, the subnormal
// results and the smallest normal ones, the range near overflow, and
// the small arguments the lognormal draws take.
func TestExpWithinOneUlp(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 1000
	}
	rng := rand.New(rand.NewSource(20))
	ranges := []struct {
		name   string
		lo, hi float64
	}{
		{"full", expUnderflow, expOverflow},
		{"subnormal", expUnderflow, -708.4},
		{"low normal", -708.39, -664},
		{"near overflow", 700, expOverflow},
		{"draws", -8, 8},
		{"tiny", -1e-3, 1e-3},
	}
	for _, rg := range ranges {
		var worst float64
		var worstX float64
		inexact := 0
		for i := 0; i < n; i++ {
			x := rg.lo + float64((rg.hi-rg.lo)*rng.Float64())
			ref := bigExp(x)
			if e := ulpError(Exp(x), ref); e > worst {
				worst, worstX = e, x
			}
			if want, _ := ref.Float64(); Exp(x) != want {
				inexact++
			}
		}
		t.Logf("%-13s max error %.4f ulp (x=%v), %d of %d not correctly rounded", rg.name, worst, worstX, inexact, n)
		if worst > 1 {
			t.Errorf("%s: Exp(%v) is %.4f ulp from e**x, want ≤ 1", rg.name, worstX, worst)
		}
	}
}

// TestExpSpecialCases pins the IEEE special values and both range
// thresholds, on each side.
func TestExpSpecialCases(t *testing.T) {
	if got := Exp(math.NaN()); !math.IsNaN(got) {
		t.Errorf("Exp(NaN) = %v, want NaN", got)
	}
	cases := []struct {
		x, want float64
	}{
		{0, 1},
		{math.Copysign(0, -1), 1},
		{math.Inf(1), math.Inf(1)},
		{math.Inf(-1), 0},
		{1, math.E},
		{math.Nextafter(expOverflow, math.Inf(1)), math.Inf(1)},
		{math.Nextafter(expUnderflow, math.Inf(-1)), 0},
		{-1000, 0},
		{1000, math.Inf(1)},
	}
	for _, c := range cases {
		if got := Exp(c.x); got != c.want {
			t.Errorf("Exp(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	// At the thresholds themselves the result is finite and nonzero,
	// and as accurate as anywhere else.
	for _, x := range []float64{expOverflow, expUnderflow} {
		got := Exp(x)
		if got == 0 || math.IsInf(got, 0) {
			t.Errorf("Exp(%v) = %v, want a finite nonzero value", x, got)
		}
		if e := ulpError(got, bigExp(x)); e > 1 {
			t.Errorf("Exp(%v) = %v is %.4f ulp off", x, got, e)
		}
	}
}

// expDigest is the SHA-256 of Exp's output bits over expDigestInputs.
// A host or build on which it differs computes different simulations
// from the same seed; the CI job that runs this test on a second
// architecture is what holds the goldens to every host.
const expDigest = "2b39f1a58eda0e78e2d05219c6840e342f27cd5c6c79a0ce7f74ae9bc2b1db7c"

// expDigestInputs returns 10⁵ seeded arguments: the whole domain and
// past both thresholds, the subnormal results, and the narrow band the
// lognormal step-time draws occupy.
func expDigestInputs() []float64 {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 0, 100000)
	for len(xs) < 100000 {
		u := rng.Float64()
		var x float64
		switch len(xs) % 4 {
		case 0:
			x = float64(u*1480) - 760
		case 1:
			x = float64(u*37) - 746
		case 2:
			x = float64(u*4) - 3
		default:
			x = float64(u*0.6) - 0.3
		}
		xs = append(xs, x)
	}
	return xs
}

func TestExpDigestIsPinned(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	for _, x := range expDigestInputs() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(Exp(x)))
		h.Write(buf[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != expDigest {
		t.Fatalf("Exp output digest = %s, want %s: this build computes different exponentials", got, expDigest)
	}
}

// TestExpTable checks the init-time table against an independent
// derivation, 2**(j/N) as seven square roots of 2**j.
func TestExpTable(t *testing.T) {
	for j, e := range expTable {
		v := new(big.Float).SetPrec(refPrec).SetInt64(1)
		v.SetMantExp(v, j)
		for i := 0; i < expTableBits; i++ {
			v.Sqrt(v)
		}
		want, _ := v.Float64()
		if e.t != want {
			t.Fatalf("table[%d].t = %v, want %v", j, e.t, want)
		}
		d := new(big.Float).SetPrec(refPrec).SetFloat64(e.t)
		d.Sub(v, d)
		d.Quo(d, new(big.Float).SetFloat64(e.t))
		if c, _ := d.Float64(); e.c != c {
			t.Fatalf("table[%d].c = %v, want %v", j, e.c, c)
		}
	}
}

// TestDrawPathHasNoFusedMultiplyAdd compiles this package for arm64,
// whose compiler fuses x*y + z into one instruction where the Go spec
// allows it, and checks the draw path's assembly. A fused product skips
// a rounding, so it would compute other bits than amd64 and 386 do.
func TestDrawPathHasNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the package")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	cmd := exec.Command(goTool, "build", "-gcflags=-S", ".")
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arm64 build: %v\n%s", err, out)
	}
	drawPath := map[string]bool{
		"repro/internal/stats.Exp":                     true,
		"repro/internal/stats.(*LogNormalDist).Sample": true,
		"repro/internal/stats.MakeLogNormalDist":       true,
	}
	seen := 0
	fn := ""
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[1] == "STEXT" {
			fn = f[0]
			if drawPath[fn] {
				seen++
			}
		}
		for _, op := range []string{"FMADDD", "FMSUBD", "FNMADDD", "FNMSUBD"} {
			if drawPath[fn] && strings.Contains(line, "\t"+op+"\t") {
				t.Errorf("%s has a fused %s: %s", fn, op, strings.TrimSpace(line))
			}
		}
	}
	if seen != len(drawPath) {
		t.Fatalf("found %d of the %d draw-path functions in the assembly listing", seen, len(drawPath))
	}
}

func BenchmarkExp(b *testing.B) {
	b.ReportAllocs()
	x := 0.1
	for i := 0; i < b.N; i++ {
		// Chained: each call waits for the last, as the simulator's
		// step loop does.
		x = Exp(x) - 1.05
	}
	sinkFloat = x
}

func BenchmarkMathExp(b *testing.B) {
	b.ReportAllocs()
	x := 0.1
	for i := 0; i < b.N; i++ {
		x = math.Exp(x) - 1.05
	}
	sinkFloat = x
}

var sinkFloat float64
