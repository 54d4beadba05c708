// Package rate implements exact rational arithmetic for link and session
// rates.
//
// B-Neck's stability and quiescence conditions (Definition 2 of the paper)
// are exact equality tests between stored session rates and freshly computed
// bottleneck rates B_e = (C_e - Σ λ_s)/|R_e|. Floating point drift in the
// incrementally maintained sums would make those tests fail spuriously and
// the protocol would either livelock (endless Update cycles) or mis-declare
// bottlenecks. Rates are therefore exact rationals.
//
// A Rate is immutable and stored in one of three tiers, chosen by the size
// of the value alone:
//
//   - int64: numerator and denominator fit in int64 (numerator above
//     math.MinInt64, so negation stays in the tier). Every rate of the
//     internet rungs lives here, on a fast path with no 128-bit work.
//   - 128-bit: numerator and denominator magnitudes below 2^127, with
//     arithmetic on 64-bit limbs from math/bits. The paper's transit-stub
//     LAN composes B_e = (C_e - Σ λ)/|R_e| into such values. Those whose
//     magnitudes fit 192 bits together are packed into the Rate itself and
//     cost no allocation; the others take one small heap cell.
//   - big.Rat: everything larger, on the heap.
//
// Values are always normalized (reduced fraction, positive denominator, the
// narrowest tier that holds them and, in the 128-bit tier, packed whenever
// they fit), so two equal rates always have equal Key strings. Compare
// rates with Equal: values held on the heap differ by pointer.
//
// The zero value of Rate is the rate 0.
package rate

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
)

// Rate is an exact rational number of bits per second (or any other unit the
// caller chooses), with a distinguished +∞ used for unbounded session
// demands. Rate values are immutable; all methods return new values.
//
// A Rate is 32 bytes in four fields, which is what lets the compiler keep
// it in registers: a fifth field or more bytes send every Rate through
// memory, and padding Rate to 48 bytes made the int64 fast path of
// B_e = (C_e - Σ λ)/|R_e| about 80% slower. So the 128-bit tier packs its magnitudes into the three data
// words when they fit there together (see wide.go), and only the rest take
// a small heap cell.
type Rate struct {
	// x says which tier applies:
	//   x == nil           => int64: num/den (reduced, den > 0), or 0 when
	//                         den == 0 (the useful zero value)
	//   x.kind == tierWide => 128-bit: magnitudes packed into num, den and
	//                         w2 as laid out by x, a static tag, or held in
	//                         x itself when x.split == 0 (wide.go)
	//   x.kind == tierBig  => *x.br (normalized, does not fit the narrower
	//                         tiers)
	//   x == &infTag       => +∞
	num, den int64
	w2       uint64
	x        *ext
}

// ext is what a Rate outside the int64 tier points to: a static tag for
// packed 128-bit values and for +∞, or a heap cell holding a 128-bit value
// too long to pack or a big.Rat.
type ext struct {
	kind tier
	// neg is the sign of a 128-bit value. split is the bit length of its
	// denominator when packed, or 0 when num and den hold its magnitudes.
	neg      bool
	split    uint8
	num, den u128
	br       *big.Rat
}

type tier uint8

const (
	tierInt tier = iota
	tierWide
	tierBig
	tierInf
)

// tier returns the tier r is stored in.
func (r Rate) tier() tier {
	if r.x == nil {
		return tierInt
	}
	return r.x.kind
}

var infTag = ext{kind: tierInf}

// Zero is the rate 0.
var Zero = Rate{num: 0, den: 1}

// Inf is the unbounded rate +∞, used for sessions with no maximum demand.
var Inf = Rate{x: &infTag}

// FromInt64 returns the rate v/1.
func FromInt64(v int64) Rate {
	if v == math.MinInt64 {
		return fromMinInt64(v, 1)
	}
	return Rate{num: v, den: 1}
}

// FromFrac returns the rate num/den. It panics if den == 0.
func FromFrac(num, den int64) Rate {
	if den == 0 {
		panic("rate: zero denominator")
	}
	if num == math.MinInt64 || den == math.MinInt64 {
		return fromMinInt64(num, den)
	}
	return normalizeInt(num, den)
}

// FromBigRat returns the rate equal to r. The argument is copied.
func FromBigRat(r *big.Rat) Rate { return normalizeBig(new(big.Rat).Set(r)) }

// Mbps returns the rate v megabits per second expressed in bits per second.
// It is a convenience for building topologies with the paper's capacities.
func Mbps(v int64) Rate { return FromInt64(v * 1_000_000) }

// fromMinInt64 returns num/den where either is math.MinInt64, whose
// magnitude 2^63 has no int64 negation, through the 128-bit tier.
func fromMinInt64(num, den int64) Rate {
	n, d := absU64(num), absU64(den)
	g := gcd64u(n, d)
	r, _ := fromWide((num < 0) != (den < 0), u128{lo: n / g}, u128{lo: d / g})
	return r
}

// normalizeInt reduces num/den and returns the canonical Rate. Neither may
// be math.MinInt64.
func normalizeInt(num, den int64) Rate {
	if den < 0 {
		num, den = -num, -den
	}
	if num == 0 {
		return Zero
	}
	g := gcd64(abs64(num), den)
	return Rate{num: num / g, den: den / g}
}

// normalizeBig demotes r to the narrowest tier that holds it. It takes
// ownership of r.
func normalizeBig(r *big.Rat) Rate {
	// big.Rat is always normalized with positive denominator.
	n, d := r.Num(), r.Denom()
	switch {
	case n.BitLen() <= 63 && d.BitLen() <= 63:
		return Rate{num: n.Int64(), den: d.Int64()}
	case n.BitLen() <= 127 && d.BitLen() <= 127:
		if w, ok := fromWide(n.Sign() < 0, u128Of(n), u128Of(d)); ok {
			return w
		}
	}
	return Rate{x: &ext{kind: tierBig, br: r}}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// IsInf reports whether r is +∞.
func (r Rate) IsInf() bool { return r.x == &infTag }

// IsZero reports whether r is 0.
func (r Rate) IsZero() bool {
	return r.x == nil && (r.den == 0 || r.num == 0)
}

// Sign returns -1, 0 or +1 according to the sign of r. +∞ has sign +1.
func (r Rate) Sign() int {
	switch r.tier() {
	case tierInf:
		return 1
	case tierBig:
		return r.x.br.Sign()
	case tierWide:
		if r.x.neg {
			return -1
		}
		return 1
	}
	switch {
	case r.den == 0 || r.num == 0:
		return 0
	case r.num < 0:
		return -1
	default:
		return 1
	}
}

// toBig returns the value as a big.Rat. It panics on +∞. The result must not
// be mutated when it aliases x.br; callers that mutate must copy.
func (r Rate) toBig() *big.Rat {
	switch r.tier() {
	case tierInf:
		panic("rate: toBig on +Inf")
	case tierBig:
		return r.x.br
	case tierWide:
		neg, n, d, _ := r.wide()
		return new(big.Rat).SetFrac(n.bigInt(neg), d.bigInt(false))
	}
	if r.den == 0 {
		return new(big.Rat)
	}
	return big.NewRat(r.num, r.den)
}

// parts returns the int64 numerator and denominator, normalizing the zero
// value, and whether the fast path applies.
func (r Rate) parts() (num, den int64, ok bool) {
	if r.x != nil {
		return 0, 0, false
	}
	if r.den == 0 {
		return 0, 1, true
	}
	return r.num, r.den, true
}

// mul64 multiplies two int64s other than math.MinInt64, reporting whether
// the result fits in the int64 tier (which excludes math.MinInt64).
func mul64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a || p == math.MinInt64 {
		return 0, false
	}
	return p, true
}

// add64 adds two int64s other than math.MinInt64, reporting whether the
// result fits in the int64 tier.
func add64(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) || s == math.MinInt64 {
		return 0, false
	}
	return s, true
}

// Add returns r + o. Adding anything to +∞ yields +∞.
func (r Rate) Add(o Rate) Rate {
	rn, rd, rok := r.parts()
	on, od, ook := o.parts()
	if rok && ook {
		if s, ok := addInt(rn, rd, on, od); ok {
			return s
		}
	}
	if r.IsInf() || o.IsInf() {
		return Inf
	}
	return addOther(r, o)
}

// addInt returns rn/rd + on/od on the int64 fast path, and false when an
// intermediate leaves the int64 tier. It is Knuth's reduced rational
// addition: with g = gcd(rd, od), the sum is
// (rn*(od/g) + on*(rd/g)) / (rd*(od/g)), which keeps the intermediates as
// small as possible and so stays on the fast path far longer than the
// textbook cross-multiplication.
func addInt(rn, rd, on, od int64) (Rate, bool) {
	g := gcd64(rd, od)
	odg, rdg := od/g, rd/g
	a, ok1 := mul64(rn, odg)
	b, ok2 := mul64(on, rdg)
	d, ok3 := mul64(rd, odg)
	if ok1 && ok2 && ok3 {
		if n, ok := add64(a, b); ok {
			return normalizeInt(n, d), true
		}
	}
	return Rate{}, false
}

// addOther is Add for finite operands off the int64 fast path: the 128-bit
// tier when both operands and the sum fit, big.Rat otherwise.
func addOther(r, o Rate) Rate {
	if s, ok := addWide(r, o); ok {
		return s
	}
	return normalizeBig(new(big.Rat).Add(r.toBig(), o.toBig()))
}

// Sub returns r - o. It panics if o is +∞ and r is finite; ∞ - x = ∞ for
// finite x.
func (r Rate) Sub(o Rate) Rate {
	// Negating an int64-tier numerator cannot overflow (the tier excludes
	// MinInt64), so the fast path subtracts without building -o.
	rn, rd, rok := r.parts()
	on, od, ook := o.parts()
	if rok && ook {
		if s, ok := addInt(rn, rd, -on, od); ok {
			return s
		}
	}
	if r.IsInf() {
		if o.IsInf() {
			panic("rate: Inf - Inf")
		}
		return Inf
	}
	if o.IsInf() {
		panic("rate: finite - Inf")
	}
	return addOther(r, o.Neg())
}

// Neg returns -r. It panics on +∞.
func (r Rate) Neg() Rate {
	switch r.tier() {
	case tierInf:
		panic("rate: Neg on +Inf")
	case tierBig:
		return normalizeBig(new(big.Rat).Neg(r.x.br))
	case tierWide:
		if r.x.split == 0 {
			e := *r.x
			e.neg = !e.neg
			r.x = &e
		} else {
			r.x = wideTag(!r.x.neg, r.x.split)
		}
		return r
	}
	// The int64 tier excludes MinInt64, so -n does not overflow.
	n, d, _ := r.parts()
	return Rate{num: -n, den: d}
}

// DivInt returns r / n for n > 0. ∞ / n = ∞. It panics if n <= 0.
func (r Rate) DivInt(n int) Rate {
	if n <= 0 {
		panic("rate: DivInt by non-positive")
	}
	rn, rd, ok := r.parts()
	if ok {
		// Divide the gcd out of the numerator first so the new denominator
		// grows as little as possible.
		g := gcd64(abs64(rn), int64(n))
		if d, ok := mul64(rd, int64(n)/g); ok {
			return normalizeInt(rn/g, d)
		}
	}
	if r.IsInf() {
		return Inf
	}
	if q, ok := divIntWide(r, uint64(n)); ok {
		return q
	}
	q := new(big.Rat).SetFrac(big.NewInt(1), big.NewInt(int64(n)))
	return normalizeBig(q.Mul(q, r.toBig()))
}

// MulInt returns r * n for n >= 0. ∞ * n = ∞ (also for n == 0, which callers
// must avoid if they need measure-theoretic conventions).
func (r Rate) MulInt(n int) Rate {
	if n < 0 {
		panic("rate: MulInt by negative")
	}
	rn, rd, ok := r.parts()
	if ok {
		g := gcd64(rd, int64(n))
		if p, ok := mul64(rn, int64(n)/g); ok {
			return normalizeInt(p, rd/g)
		}
	}
	if r.IsInf() {
		return Inf
	}
	if n == 0 {
		return Zero
	}
	if p, ok := mulIntWide(r, uint64(n)); ok {
		return p
	}
	q := new(big.Rat).SetInt64(int64(n))
	return normalizeBig(q.Mul(q, r.toBig()))
}

// Cmp compares r and o, returning -1, 0 or +1. +∞ compares greater than every
// finite rate and equal to itself.
func (r Rate) Cmp(o Rate) int {
	rn, rd, rok := r.parts()
	on, od, ook := o.parts()
	if rok && ook {
		// Compare rn/rd vs on/od as exact 128-bit cross products: never
		// overflows and never allocates (denominators are positive, so the
		// comparison direction is preserved).
		return cmp128(rn, od, on, rd)
	}
	switch {
	case r.IsInf() && o.IsInf():
		return 0
	case r.IsInf():
		return 1
	case o.IsInf():
		return -1
	}
	if c, ok := cmpWide(r, o); ok {
		return c
	}
	return r.toBig().Cmp(o.toBig())
}

// cmp128 compares the exact products a·b and c·d using 128-bit arithmetic.
func cmp128(a, b, c, d int64) int {
	negAB := (a < 0) != (b < 0)
	negCD := (c < 0) != (d < 0)
	// uint64(abs64(x)) is the true |x| for every int64 including MinInt64
	// (two's complement wraparound lands on 2^63).
	hiAB, loAB := bits.Mul64(uint64(abs64(a)), uint64(abs64(b)))
	hiCD, loCD := bits.Mul64(uint64(abs64(c)), uint64(abs64(d)))
	if hiAB == 0 && loAB == 0 {
		negAB = false
	}
	if hiCD == 0 && loCD == 0 {
		negCD = false
	}
	if negAB != negCD {
		if negAB {
			return -1
		}
		return 1
	}
	cmp := 0
	switch {
	case hiAB != hiCD:
		if hiAB < hiCD {
			cmp = -1
		} else {
			cmp = 1
		}
	case loAB != loCD:
		if loAB < loCD {
			cmp = -1
		} else {
			cmp = 1
		}
	}
	if negAB {
		return -cmp
	}
	return cmp
}

// Equal reports whether r == o exactly.
func (r Rate) Equal(o Rate) bool { return r.Cmp(o) == 0 }

// Less reports whether r < o.
func (r Rate) Less(o Rate) bool { return r.Cmp(o) < 0 }

// LessEq reports whether r <= o.
func (r Rate) LessEq(o Rate) bool { return r.Cmp(o) <= 0 }

// Greater reports whether r > o.
func (r Rate) Greater(o Rate) bool { return r.Cmp(o) > 0 }

// GreaterEq reports whether r >= o.
func (r Rate) GreaterEq(o Rate) bool { return r.Cmp(o) >= 0 }

// Min returns the smaller of r and o.
func Min(r, o Rate) Rate {
	if r.Cmp(o) <= 0 {
		return r
	}
	return o
}

// Max returns the larger of r and o.
func Max(r, o Rate) Rate {
	if r.Cmp(o) >= 0 {
		return r
	}
	return o
}

// Float64 returns the value as a float64 (for metrics and reporting only;
// never used in protocol decisions). +∞ maps to math.Inf(1).
//
//bneck:float the one sanctioned exit from exact arithmetic: a display conversion whose result never feeds back into rates.
func (r Rate) Float64() float64 {
	switch r.tier() {
	case tierInf:
		return math.Inf(1)
	case tierWide, tierBig:
		f, _ := r.toBig().Float64()
		return f
	}
	n, d, _ := r.parts()
	return float64(n) / float64(d)
}

// Key returns a canonical string representation usable as a map key. Equal
// rates always produce equal keys.
func (r Rate) Key() string {
	switch r.tier() {
	case tierInf:
		return "inf"
	case tierBig:
		return r.x.br.RatString()
	case tierWide:
		neg, n, d, _ := r.wide()
		var b []byte
		if neg {
			b = append(b, '-')
		}
		b = appendU128(b, n)
		if d != one128 {
			b = appendU128(append(b, '/'), d)
		}
		return string(b)
	}
	n, d, _ := r.parts()
	if d == 1 {
		return fmt.Sprintf("%d", n)
	}
	return fmt.Sprintf("%d/%d", n, d)
}

// String renders the rate for humans: integers render bare, other rationals
// as num/den, +∞ as "inf".
func (r Rate) String() string { return r.Key() }
