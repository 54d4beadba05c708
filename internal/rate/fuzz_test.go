package rate

import (
	"math"
	"math/big"
	"testing"
)

// fuzzRat builds ±(hi:lo << shift) / (dhi:dlo << dshift) as a big.Rat, with
// a zero denominator read as 1. The shifts of up to 7 bits carry 128-bit
// words past the 128-bit tier into big.Rat.
func fuzzRat(hi, lo, dhi, dlo uint64, shifts uint8, neg bool) *big.Rat {
	n := u128{hi: hi, lo: lo}.bigInt(neg)
	d := u128{hi: dhi, lo: dlo}.bigInt(false)
	if d.Sign() == 0 {
		d.SetInt64(1)
	}
	n.Lsh(n, uint(shifts&7))
	d.Lsh(d, uint(shifts>>3&7))
	return new(big.Rat).SetFrac(n, d)
}

// FuzzArith checks Add, Sub, Cmp, DivInt, MulInt, Neg and Parse on fuzzed
// operands of every tier against math/big: each result's Key must equal
// big.Rat.RatString and sit in the narrowest tier that holds it.
func FuzzArith(f *testing.F) {
	const m63, m64 = math.MaxInt64, math.MaxUint64
	for _, s := range []struct {
		ahi, alo, adhi, adlo, bhi, blo, bdhi, bdlo uint64
		shifts                                     uint8
		n                                          uint64
	}{
		{0, 1, 0, 2, 0, 1, 0, 3, 0, 7},
		{0, m63, 0, 1, 0, 1, 0, 1, 0, 2},             // 2^63 - 1 + 1
		{0, 1 << 63, 0, 3, 0, 1 << 62, 0, 5, 0, 3},   // around 2^63
		{m63, m64, 0, 5, 0, 1, 0, 5, 0, 1},           // (2^127 - 1)/5 + 1/5 leaves the tier
		{m63, m64, m63, m64 - 2, 0, 1, 0, 1, 0, m63}, // 2^127 - 1 in both parts
		{1 << 62, 0, 0, 1, 1 << 62, 0, 0, 1, 9, 4},   // shifted past 2^128
		{0, 6, 0, 4, 0, 6, 0, 4, 0, 0},               // equal operands; demotes to int64
	} {
		f.Add(s.ahi, s.alo, s.adhi, s.adlo, s.bhi, s.blo, s.bdhi, s.bdlo, s.shifts, false, true, s.n)
	}
	f.Fuzz(func(t *testing.T, ahi, alo, adhi, adlo, bhi, blo, bdhi, bdlo uint64, shifts uint8, aneg, bneg bool, n uint64) {
		ra := fuzzRat(ahi, alo, adhi, adlo, shifts, aneg)
		rb := fuzzRat(bhi, blo, bdhi, bdlo, shifts>>6|shifts<<2, bneg)
		a, b := FromBigRat(ra), FromBigRat(rb)
		check(t, "a", a, ra)
		check(t, "a+b", a.Add(b), new(big.Rat).Add(ra, rb))
		check(t, "a-b", a.Sub(b), new(big.Rat).Sub(ra, rb))
		check(t, "-a", a.Neg(), new(big.Rat).Neg(ra))
		if got, want := a.Cmp(b), ra.Cmp(rb); got != want {
			t.Fatalf("Cmp(%v, %v) = %d, want %d", a, b, got, want)
		}
		k := int(n & math.MaxInt64)
		rk := new(big.Rat).SetInt64(int64(k))
		check(t, "a*n", a.MulInt(k), new(big.Rat).Mul(ra, rk))
		if k > 0 {
			check(t, "a/n", a.DivInt(k), new(big.Rat).Quo(ra, rk))
		}
		p, err := Parse(a.Key())
		if err != nil {
			t.Fatalf("Parse(%q): %v", a.Key(), err)
		}
		check(t, "Parse(a.Key())", p, ra)
	})
}
