package stats

import (
	"math"
	"math/big"
)

// Exp returns e**x. It is the repository's one exponential: every
// simulated draw and every fitted kernel goes through it, so its bits
// must not depend on the host. math.Exp does not qualify: on amd64 it
// runs assembly whose fused multiply-adds are taken only when the CPU
// has FMA, elsewhere it runs portable Go, and the three paths round
// differently.
//
// The method is Tang's table-driven exponential. With N = 128 and
// k = round(x·N/ln2), x = k·ln2/N + r where |r| ≤ ln2/(2N), so
//
//	e**x = 2**(k div N) · 2**((k mod N)/N) · e**r.
//
// The middle factor comes from a 128-entry table computed at init in
// 256-bit arithmetic, the reduction subtracts k·ln2/N in fdlibm's two
// parts (the high part has trailing zero bits, so k times it is
// exact), and e**r − 1 is its degree-5 Taylor polynomial, whose
// truncation error is under 2**-60 on the reduced range. The final rounding dominates: the
// result is within 1 ulp of e**x everywhere, subnormal results
// included, and correctly rounded almost always.
//
// Only IEEE-754 +, −, × and ÷ on float64 are used, and every product
// that feeds a sum passes through an explicit float64 conversion, which
// the Go spec defines to round and so forbids the compiler to fuse.
// Any conforming build therefore computes the same bits.
func Exp(x float64) float64 {
	switch {
	case x != x:
		return x
	case x > expOverflow:
		return math.Inf(1)
	case x < expUnderflow:
		return 0
	}
	// Adding 1.5·2**52 rounds x·N/ln2 to the nearest integer, ties to
	// even, in the default rounding mode every Go target uses.
	kf := float64(x*expInvLn2N) + expShift
	kf -= expShift
	k := int(kf)
	r := x - float64(kf*expLn2HiN) - float64(kf*expLn2LoN)

	// e**r·(1+c) − 1 ≈ c + r + r²/2 + r³/6 + r⁴/24 + r⁵/120, where c
	// is the table entry's relative rounding error; the two halves of
	// the polynomial evaluate independently.
	e := &expTable[k&(expN-1)]
	r2 := r * r
	p := e.c + r + float64(r2*(1.0/2+float64(r*(1.0/6)))) +
		float64(float64(r2*r2)*(1.0/24+float64(r*(1.0/120))))

	// s = 2**m · t, assembled in the exponent bits. At the range ends
	// the result scales in two steps instead: past 2**1023, 2**m is not
	// a float64; near the subnormals, s·p would itself be subnormal
	// and lose bits, so it is formed 2**64 higher and the one rounding
	// happens in the final product.
	m := k >> expTableBits
	tbits := math.Float64bits(e.t)
	switch {
	case m > 1023:
		s := math.Float64frombits(tbits + uint64(m-1)<<52)
		return (s + float64(s*p)) * 2
	case m < -1022+64:
		s := math.Float64frombits(tbits + uint64(m+64)<<52)
		return (s + float64(s*p)) * 0x1p-64
	}
	s := math.Float64frombits(tbits + uint64(m)<<52)
	return s + float64(s*p)
}

const (
	expTableBits = 7
	expN         = 1 << expTableBits

	// expInvLn2N is N/ln2; expLn2HiN and expLn2LoN are fdlibm's split
	// of ln2 (Ln2Hi carries 32 significant bits, so k·Ln2Hi/N is exact
	// for every k this range yields), divided by N.
	expInvLn2N = expN / math.Ln2
	expLn2HiN  = 6.93147180369123816490e-01 / expN
	expLn2LoN  = 1.90821492927058770002e-10 / expN
	expShift   = 0x1.8p52

	// expOverflow is the largest x with a finite e**x; expUnderflow
	// the smallest x whose e**x does not round to 0.
	expOverflow  = 7.09782712893383973096e+02
	expUnderflow = -7.45133219101941108420e+02
)

// expEntry is one table row: t = 2**(j/N) rounded to float64, and
// c = (2**(j/N) − t)/t, the relative error of that rounding.
type expEntry struct{ t, c float64 }

var expTable = makeExpTable()

// makeExpTable computes the table in 256-bit arithmetic: 2**(1/N) by
// seven square roots of 2, then its powers. math/big rounds every
// operation exactly as specified at the requested precision, so the
// table is the same on every host.
func makeExpTable() (tab [expN]expEntry) {
	const prec = 256
	root := new(big.Float).SetPrec(prec).SetInt64(2)
	for i := 0; i < expTableBits; i++ {
		root.Sqrt(root)
	}
	pow := new(big.Float).SetPrec(prec).SetInt64(1)
	d := new(big.Float).SetPrec(prec)
	for j := range tab {
		t, _ := pow.Float64()
		tf := new(big.Float).SetFloat64(t)
		d.Sub(pow, tf)
		d.Quo(d, tf)
		c, _ := d.Float64()
		tab[j] = expEntry{t: t, c: c}
		pow.Mul(pow, root)
	}
	return tab
}
