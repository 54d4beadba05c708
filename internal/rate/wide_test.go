package rate

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"unsafe"
)

// smallPrimes are the factors arbWide composes numerators and denominators
// from: B_e = (C_e - Σ λ)/|R_e| compositions multiply small session counts
// and capacities together, which is how rates reach the 128-bit tier.
var smallPrimes = []int64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53}

// primeProduct returns a product of small primes with a bit length in
// [lo, hi], or just above hi when the last factor overshoots.
func primeProduct(r *rand.Rand, lo, hi int) *big.Int {
	target := lo + r.Intn(hi-lo+1)
	x := big.NewInt(1)
	for x.BitLen() < target {
		x.Mul(x, big.NewInt(smallPrimes[r.Intn(len(smallPrimes))]))
	}
	return x
}

// arbWide returns a rate whose numerator and denominator are products of
// small primes of 64–135 bits (before reduction), so it lands in the
// 128-bit tier or, now and then, in big.Rat.
func arbWide(r *rand.Rand) Rate {
	n := primeProduct(r, 64, 135)
	if r.Intn(2) == 0 {
		n.Neg(n)
	}
	return FromBigRat(new(big.Rat).SetFrac(n, primeProduct(r, 32, 135)))
}

// pow2 returns 2^k + d.
func pow2(k uint, d int64) *big.Int {
	x := new(big.Int).Lsh(big.NewInt(1), k)
	return x.Add(x, big.NewInt(d))
}

// boundaries are values at the edges of the tiers: 2^63 ± 1, 2^127 ± 1, in
// numerator and denominator, with both signs.
func boundaries() []Rate {
	var out []Rate
	for _, k := range []uint{63, 64, 127, 128} {
		for _, d := range []int64{-1, 0, 1} {
			v := pow2(k, d)
			for _, neg := range []bool{false, true} {
				n := new(big.Int).Set(v)
				if neg {
					n.Neg(n)
				}
				out = append(out,
					FromBigRat(new(big.Rat).SetInt(n)),
					FromBigRat(new(big.Rat).SetFrac(n, big.NewInt(3))),
					FromBigRat(new(big.Rat).SetFrac(big.NewInt(7), v)),
				)
			}
		}
	}
	// Magnitudes whose bit lengths sum to 191, 192 and 193: the edge of the
	// packed 128-bit layout.
	for _, nb := range []uint{96, 127} {
		for _, db := range []uint{191, 192, 193} {
			out = append(out, FromBigRat(new(big.Rat).SetFrac(pow2(nb-1, 1), pow2(db-nb-1, 1))))
		}
	}
	return append(out, FromInt64(math.MaxInt64), FromInt64(math.MinInt64),
		FromFrac(1, math.MaxInt64), FromFrac(math.MinInt64, 3))
}

// arbAny mixes int64-tier, 128-bit-tier and boundary operands.
func arbAny(r *rand.Rand, edges []Rate) Rate {
	switch r.Intn(4) {
	case 0:
		return arb(r)
	case 1:
		return edges[r.Intn(len(edges))]
	}
	return arbWide(r)
}

// wantTier is the tier the canonical form of v must use.
func wantTier(v *big.Rat) string {
	n, d := v.Num().BitLen(), v.Denom().BitLen()
	switch {
	case n <= 63 && d <= 63:
		return "int64"
	case n <= 127 && d <= 127:
		return "wide"
	}
	return "big"
}

// identical reports whether a and b have the same representation, reading
// through the heap cells of 128-bit values too long to pack.
func identical(a, b Rate) bool {
	if a.x != nil && b.x != nil && a.x.kind == tierWide && a.x.split == 0 {
		return *a.x == *b.x
	}
	return a == b
}

// check fails t unless got is exactly want in its canonical tier.
func check(t *testing.T, what string, got Rate, want *big.Rat) {
	t.Helper()
	if got.Key() != want.RatString() {
		t.Fatalf("%s = %v, want %v", what, got, want.RatString())
	}
	if Tier(got) != wantTier(want) {
		t.Fatalf("%s = %v in tier %s, want tier %s", what, got, Tier(got), wantTier(want))
	}
	if Tier(got) == "wide" {
		packed := want.Num().BitLen()+want.Denom().BitLen() <= 192
		if (got.x.split != 0) != packed {
			t.Fatalf("%s = %v: packed %t, want %t", what, got, got.x.split != 0, packed)
		}
	}
}

func TestWideMatchesBigRat(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	edges := boundaries()
	for i := 0; i < 20000; i++ {
		a, b := arbAny(r, edges), arbAny(r, edges)
		ra, rb := ref(a), ref(b)
		check(t, a.Key()+" + "+b.Key(), a.Add(b), new(big.Rat).Add(ra, rb))
		check(t, a.Key()+" - "+b.Key(), a.Sub(b), new(big.Rat).Sub(ra, rb))
		check(t, "-("+a.Key()+")", a.Neg(), new(big.Rat).Neg(ra))
		if got, want := a.Cmp(b), ra.Cmp(rb); got != want {
			t.Fatalf("Cmp(%v, %v) = %d, want %d", a, b, got, want)
		}
		if a.Equal(b) != identical(a, b) {
			t.Fatalf("%v and %v: Equal disagrees with ==, representation not canonical", a, b)
		}
		n := 1 + r.Int63n(1<<uint(1+r.Intn(62)))
		rn := new(big.Rat).SetInt64(n)
		check(t, a.Key()+" / n", a.DivInt(int(n)), new(big.Rat).Quo(ra, rn))
		check(t, a.Key()+" * n", a.MulInt(int(n)), new(big.Rat).Mul(ra, rn))
		p, err := Parse(a.Key())
		if err != nil || !p.Equal(a) || Tier(p) != Tier(a) || (Tier(a) != "big" && !identical(p, a)) {
			t.Fatalf("Parse(%q) = %v, %v; want an identical Rate", a.Key(), p, err)
		}
	}
}

// TestWideTierBoundaries walks results across each tier edge: sums that
// demote to int64, stay in 128 bits, or promote to big.Rat.
func TestWideTierBoundaries(t *testing.T) {
	edges := boundaries()
	for _, a := range edges {
		for _, b := range edges {
			ra, rb := ref(a), ref(b)
			check(t, a.Key()+" + "+b.Key(), a.Add(b), new(big.Rat).Add(ra, rb))
			check(t, a.Key()+" - "+b.Key(), a.Sub(b), new(big.Rat).Sub(ra, rb))
			if got, want := a.Cmp(b), ra.Cmp(rb); got != want {
				t.Fatalf("Cmp(%v, %v) = %d, want %d", a, b, got, want)
			}
		}
		for _, n := range []int{1, 2, 3, math.MaxInt64} {
			rn := new(big.Rat).SetInt64(int64(n))
			check(t, a.Key()+" / n", a.DivInt(n), new(big.Rat).Quo(ref(a), rn))
			check(t, a.Key()+" * n", a.MulInt(n), new(big.Rat).Mul(ref(a), rn))
		}
	}
	// (2^127-1)/5 + 1/5 = 2^127/5 leaves the 128-bit tier; subtracting the
	// 1/5 again comes back to it.
	x := FromBigRat(new(big.Rat).SetFrac(pow2(127, -1), big.NewInt(5)))
	up := x.Add(FromFrac(1, 5))
	if Tier(x) != "wide" || Tier(up) != "big" {
		t.Fatalf("tiers %s -> %s, want wide -> big", Tier(x), Tier(up))
	}
	if down := up.Sub(FromFrac(1, 5)); !identical(down, x) {
		t.Fatalf("2^127/5 - 1/5 = %v in tier %s, want %v in tier wide", down, Tier(down), x)
	}
}

// TestMinInt64 pins the edge cases of the int64 tier at math.MinInt64,
// whose magnitude 2^63 has no int64 negation.
func TestMinInt64(t *testing.T) {
	min := new(big.Rat).SetInt64(math.MinInt64)
	check(t, "FromInt64(MinInt64)", FromInt64(math.MinInt64), min)
	check(t, "FromInt64(MinInt64).Neg()", FromInt64(math.MinInt64).Neg(), new(big.Rat).Neg(min))
	check(t, "Zero.Sub(FromInt64(MinInt64))", Zero.Sub(FromInt64(math.MinInt64)), new(big.Rat).Neg(min))
	check(t, "FromFrac(MinInt64, -1)", FromFrac(math.MinInt64, -1), new(big.Rat).Neg(min))
	check(t, "FromFrac(1, MinInt64)", FromFrac(1, math.MinInt64), new(big.Rat).Inv(min))
	check(t, "FromFrac(MinInt64, MinInt64)", FromFrac(math.MinInt64, math.MinInt64), big.NewRat(1, 1))
	check(t, "FromFrac(MinInt64, 2)", FromFrac(math.MinInt64, 2), big.NewRat(math.MinInt64/2, 1))
	// Int64-tier arithmetic that lands exactly on -2^63.
	check(t, "-2^62 * 2", FromInt64(-1<<62).MulInt(2), min)
	check(t, "-2^62 + -2^62", FromInt64(-1<<62).Add(FromInt64(-1<<62)), min)
	if r := FromFrac(1, math.MinInt64); r.Sign() != -1 {
		t.Fatalf("FromFrac(1, MinInt64).Sign() = %d, want -1", r.Sign())
	}
}

func TestDivmodMatchesBigInt(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	word := func() uint64 {
		// Mix full random words with sparse ones, which hit the rarely
		// taken correction and add-back branches.
		switch r.Intn(4) {
		case 0:
			return 0
		case 1:
			return math.MaxUint64 - uint64(r.Intn(3))
		case 2:
			return 1 << uint(r.Intn(64))
		}
		return r.Uint64()
	}
	for i := 0; i < 50000; i++ {
		u := u256{word(), word(), word(), word()}
		v := u128{hi: word(), lo: word()}
		if v.isZero() {
			continue
		}
		q, rem := divmod(u, v)
		bu := new(big.Int)
		for j := 3; j >= 0; j-- {
			bu.Lsh(bu, 64).Or(bu, new(big.Int).SetUint64(u[j]))
		}
		bq, br := new(big.Int).QuoRem(bu, v.bigInt(false), new(big.Int))
		gq := new(big.Int)
		for j := 3; j >= 0; j-- {
			gq.Lsh(gq, 64).Or(gq, new(big.Int).SetUint64(q[j]))
		}
		if gq.Cmp(bq) != 0 || rem.bigInt(false).Cmp(br) != 0 {
			t.Fatalf("divmod(%x, %x) = %x, %x; want %x, %x", u, v, gq, rem, bq, br)
		}
		a := u128{hi: word(), lo: word()}
		want := new(big.Int).GCD(nil, nil, a.bigInt(false), v.bigInt(false))
		if got := gcd128(a, v); got.bigInt(false).Cmp(want) != 0 {
			t.Fatalf("gcd128(%x, %x) = %x, want %x", a, v, got, want)
		}
	}
}

// TestWideNoAllocs pins the point of the 128-bit tier: arithmetic whose
// operands and result fit takes no allocation, like the int64 tier.
func TestWideNoAllocs(t *testing.T) {
	wa := FromBigRat(new(big.Rat).SetFrac(pow2(80, 3), pow2(30, 1)))
	wb := FromBigRat(new(big.Rat).SetFrac(pow2(78, -7), pow2(31, 3)))
	ia, ib := FromFrac(1_000_000_007, 6), FromFrac(99_999_989, 10)
	for _, v := range []Rate{wa, wb, wa.Add(wb), wa.Sub(wb), wa.DivInt(97)} {
		if Tier(v) != "wide" {
			t.Fatalf("%v is in tier %s, want wide", v, Tier(v))
		}
	}
	var sink Rate
	var c int
	for name, fn := range map[string]func(){
		"wide-add":     func() { sink = wa.Add(wb) },
		"wide-sub":     func() { sink = wa.Sub(wb) },
		"wide-cmp":     func() { c = wa.Cmp(wb) },
		"wide-divint":  func() { sink = wa.DivInt(97) },
		"int64-add":    func() { sink = ia.Add(ib) },
		"int64-sub":    func() { sink = ia.Sub(ib) },
		"int64-cmp":    func() { c = ia.Cmp(ib) },
		"int64-divint": func() { sink = ia.DivInt(97) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocs per op, want 0", name, n)
		}
	}
	_, _ = sink, c
}

// TestRateSize keeps Rate at four words, the most the compiler holds in
// registers: the int64 fast path slows by up to 80% when Rate grows.
func TestRateSize(t *testing.T) {
	if n := unsafe.Sizeof(Rate{}); n > 32 {
		t.Fatalf("Rate is %d bytes, want at most 32", n)
	}
}
