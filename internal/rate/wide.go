package rate

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// This file holds the 128-bit tier: fixed-width unsigned arithmetic on
// 64-bit limbs built from math/bits, and the Rate operations on it. Wide
// values are handled in sign-magnitude form (neg, |num|, den), with both
// magnitudes below 2^127. When they fit 192 bits together, a Rate stores
// them in its three data words as the string |num|·2^s + den, where s is
// the bit length of den, and the sign and s live in the static tag x points
// to: no allocation. Longer values (about a sixth of the results on the
// transit-stub LAN) take a heap cell of their own, which is still one small
// allocation against big.Rat's nine. Every operation here reports whether
// its result fits the tier; when it does not, the caller falls back to
// big.Rat.

// wideTags are the static tags of the 128-bit tier, by sign and split.
var wideTags = func() (t [2][128]ext) {
	for s := range t[0] {
		t[0][s] = ext{kind: tierWide, split: uint8(s)}
		t[1][s] = ext{kind: tierWide, neg: true, split: uint8(s)}
	}
	return t
}()

// wideTag returns the tag of a 128-bit value with the given sign whose
// denominator is split bits long.
func wideTag(neg bool, split uint8) *ext {
	if neg {
		return &wideTags[1][split]
	}
	return &wideTags[0][split]
}

// u128 is an unsigned 128-bit integer.
type u128 struct{ hi, lo uint64 }

// u256 is an unsigned 256-bit integer, least significant limb first.
type u256 [4]uint64

var one128 = u128{lo: 1}

func (a u128) isZero() bool { return a.hi|a.lo == 0 }

func (a u128) to256() u256 { return u256{a.lo, a.hi} }

func (a u128) cmp(b u128) int {
	switch {
	case a.hi != b.hi:
		if a.hi < b.hi {
			return -1
		}
		return 1
	case a.lo != b.lo:
		if a.lo < b.lo {
			return -1
		}
		return 1
	}
	return 0
}

// sub returns a - b for a >= b.
func (a u128) sub(b u128) u128 {
	lo, borrow := bits.Sub64(a.lo, b.lo, 0)
	return u128{hi: a.hi - b.hi - borrow, lo: lo}
}

// len returns the bit length of a.
func (a u128) len() uint {
	if a.hi != 0 {
		return 128 - uint(bits.LeadingZeros64(a.hi))
	}
	return 64 - uint(bits.LeadingZeros64(a.lo))
}

func (a u128) tz() uint {
	if a.lo != 0 {
		return uint(bits.TrailingZeros64(a.lo))
	}
	return 64 + uint(bits.TrailingZeros64(a.hi))
}

func (a u128) rsh(n uint) u128 {
	if n >= 64 {
		return u128{lo: a.hi >> (n - 64)}
	}
	return u128{hi: a.hi >> n, lo: a.lo>>n | a.hi<<(64-n)}
}

func (a u128) lsh(n uint) u128 {
	if n >= 64 {
		return u128{hi: a.lo << (n - 64)}
	}
	return u128{hi: a.hi<<n | a.lo>>(64-n), lo: a.lo << n}
}

// mod64 returns a mod m for m > 0.
func (a u128) mod64(m uint64) uint64 {
	_, r := bits.Div64(a.hi%m, a.lo, m)
	return r
}

// quo64 returns a / m for m > 0.
func (a u128) quo64(m uint64) u128 {
	hi := a.hi / m
	lo, _ := bits.Div64(a.hi%m, a.lo, m)
	return u128{hi: hi, lo: lo}
}

// quo returns a / b for b > 0.
func (a u128) quo(b u128) u128 {
	if b.hi == 0 {
		return a.quo64(b.lo)
	}
	q, _ := divmod(a.to256(), b)
	return u128{hi: q[1], lo: q[0]}
}

// mul128 returns the full 256-bit product a·b.
func mul128(a, b u128) u256 {
	h00, l00 := bits.Mul64(a.lo, b.lo)
	if a.hi|b.hi == 0 {
		return u256{l00, h00}
	}
	h01, l01 := bits.Mul64(a.lo, b.hi)
	h10, l10 := bits.Mul64(a.hi, b.lo)
	h11, l11 := bits.Mul64(a.hi, b.hi)
	r1, c := bits.Add64(h00, l01, 0)
	r2, c2 := bits.Add64(h01, l11, c)
	r3 := h11 + c2
	r1, c = bits.Add64(r1, l10, 0)
	r2, c2 = bits.Add64(r2, h10, c)
	r3 += c2
	return u256{l00, r1, r2, r3}
}

func (a u256) isZero() bool { return a[0]|a[1]|a[2]|a[3] == 0 }

// low128 returns a as a u128 and whether it fits in one.
func (a u256) low128() (u128, bool) {
	return u128{hi: a[1], lo: a[0]}, a[2]|a[3] == 0
}

func (a u256) cmp(b u256) int {
	for i := 3; i >= 0; i-- {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

func (a u256) add(b u256) u256 {
	var c uint64
	a[0], c = bits.Add64(a[0], b[0], 0)
	a[1], c = bits.Add64(a[1], b[1], c)
	a[2], c = bits.Add64(a[2], b[2], c)
	a[3], _ = bits.Add64(a[3], b[3], c)
	return a
}

// sub returns a - b for a >= b.
func (a u256) sub(b u256) u256 {
	var c uint64
	a[0], c = bits.Sub64(a[0], b[0], 0)
	a[1], c = bits.Sub64(a[1], b[1], c)
	a[2], c = bits.Sub64(a[2], b[2], c)
	a[3], _ = bits.Sub64(a[3], b[3], c)
	return a
}

// addSigned returns the sign-magnitude sum of ±a and ±b.
func addSigned(aneg bool, a u256, bneg bool, b u256) (bool, u256) {
	if aneg == bneg {
		return aneg, a.add(b)
	}
	switch a.cmp(b) {
	case 1:
		return aneg, a.sub(b)
	case -1:
		return bneg, b.sub(a)
	}
	return false, u256{}
}

// divmod returns u / v and u mod v for v > 0: schoolbook division (Knuth's
// algorithm D) on 64-bit limbs.
func divmod(u u256, v u128) (q u256, r u128) {
	if v.hi == 0 {
		var rem uint64
		for i := 3; i >= 0; i-- {
			q[i], rem = bits.Div64(rem, u[i], v.lo)
		}
		return q, u128{lo: rem}
	}
	// Normalize so the divisor's top bit is set. Then the quotient limb
	// estimated from the top two dividend limbs and corrected against the
	// divisor's second limb is exact or one too large.
	s := uint(bits.LeadingZeros64(v.hi))
	vn1 := v.hi<<s | v.lo>>(64-s)
	vn0 := v.lo << s
	un := [5]uint64{
		u[0] << s,
		u[1]<<s | u[0]>>(64-s),
		u[2]<<s | u[1]>>(64-s),
		u[3]<<s | u[2]>>(64-s),
		u[3] >> (64 - s),
	}
	for j := 2; j >= 0; j-- {
		var qhat, rhat, c uint64
		if un[j+2] >= vn1 {
			qhat = math.MaxUint64
			rhat, c = bits.Add64(un[j+1], vn1, 0)
		} else {
			qhat, rhat = bits.Div64(un[j+2], un[j+1], vn1)
		}
		for c == 0 {
			ph, pl := bits.Mul64(qhat, vn0)
			if ph < rhat || (ph == rhat && pl <= un[j]) {
				break
			}
			qhat--
			rhat, c = bits.Add64(rhat, vn1, 0)
		}
		// Multiply and subtract; add back once if qhat was still one too
		// large.
		ph0, pl0 := bits.Mul64(qhat, vn0)
		ph1, pl1 := bits.Mul64(qhat, vn1)
		p1, c1 := bits.Add64(ph0, pl1, 0)
		p2 := ph1 + c1
		var b uint64
		un[j], b = bits.Sub64(un[j], pl0, 0)
		un[j+1], b = bits.Sub64(un[j+1], p1, b)
		un[j+2], b = bits.Sub64(un[j+2], p2, b)
		if b != 0 {
			qhat--
			un[j], c = bits.Add64(un[j], vn0, 0)
			un[j+1], c = bits.Add64(un[j+1], vn1, c)
			un[j+2] += c
		}
		q[j] = qhat
	}
	return q, u128{hi: un[1] >> s, lo: un[0]>>s | un[1]<<(64-s)}
}

// gcd64u is the binary GCD of two uint64s; gcd(0, b) = b.
func gcd64u(a, b uint64) uint64 {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	k := bits.TrailingZeros64(a | b)
	a >>= uint(bits.TrailingZeros64(a))
	for {
		b >>= uint(bits.TrailingZeros64(b))
		if a > b {
			a, b = b, a
		}
		b -= a
		if b == 0 {
			return a << uint(k)
		}
	}
}

// gcd128 is the GCD of two 128-bit values; gcd(0, b) = b. It runs the
// binary algorithm while both values need two limbs, and finishes with one
// remainder step and gcd64u as soon as one of them fits in a limb.
func gcd128(a, b u128) u128 {
	if a.hi == 0 && b.hi == 0 {
		return u128{lo: gcd64u(a.lo, b.lo)}
	}
	if a.isZero() {
		return b
	}
	if b.isZero() {
		return a
	}
	k := min(a.tz(), b.tz())
	a = a.rsh(a.tz())
	b = b.rsh(b.tz())
	for {
		// Both odd here.
		if a.cmp(b) > 0 {
			a, b = b, a
		}
		if a.hi == 0 {
			return u128{lo: gcd64u(a.lo, b.mod64(a.lo))}.lsh(k)
		}
		b = b.sub(a)
		if b.isZero() {
			return a.lsh(k)
		}
		b = b.rsh(b.tz())
	}
}

// wide returns r in sign-magnitude form and whether r is in the int64 or
// the 128-bit tier.
func (r Rate) wide() (neg bool, num, den u128, ok bool) {
	if r.x == nil {
		if r.den == 0 {
			return false, u128{}, one128, true
		}
		return r.num < 0, u128{lo: absU64(r.num)}, u128{lo: uint64(r.den)}, true
	}
	if r.x.kind != tierWide {
		return false, u128{}, u128{}, false
	}
	if r.x.split == 0 {
		return r.x.neg, r.x.num, r.x.den, true
	}
	// Unpack the 192-bit string p2:p1:p0 = num·2^s + den.
	p0, p1, p2 := uint64(r.num), uint64(r.den), r.w2
	s := uint(r.x.split)
	if s < 64 {
		num = u128{hi: p1>>s | p2<<(64-s), lo: p0>>s | p1<<(64-s)}
		den = u128{lo: p0 & (1<<s - 1)}
	} else {
		t := s - 64
		num = u128{hi: p2 >> t, lo: p1>>t | p2<<(64-t)}
		den = u128{hi: p1 & (1<<t - 1), lo: p0}
	}
	return r.x.neg, num, den, true
}

// absU64 returns |v|, which is 2^63 for math.MinInt64.
func absU64(v int64) uint64 {
	if v < 0 {
		return -uint64(v)
	}
	return uint64(v)
}

// fromWide returns the canonical Rate for the reduced fraction ±num/den
// (den > 0) in the narrowest tier that holds it, and false when that would
// be big.Rat.
func fromWide(neg bool, num, den u128) (Rate, bool) {
	switch {
	case num.isZero():
		return Zero, true
	case num.hi|den.hi == 0 && num.lo <= math.MaxInt64 && den.lo <= math.MaxInt64:
		v := int64(num.lo)
		if neg {
			v = -v
		}
		return Rate{num: v, den: int64(den.lo)}, true
	}
	nl, s := num.len(), den.len()
	switch {
	case nl > 127 || s > 127:
		return Rate{}, false
	case nl+s > 192:
		return Rate{x: &ext{kind: tierWide, neg: neg, num: num, den: den}}, true
	}
	// Pack num·2^s + den into three words; 1 <= s <= 127.
	var p0, p1, p2 uint64
	if s < 64 {
		p0 = den.lo | num.lo<<s
		p1 = num.lo>>(64-s) | num.hi<<s
		p2 = num.hi >> (64 - s)
	} else {
		t := s - 64
		p0 = den.lo
		p1 = den.hi | num.lo<<t
		p2 = num.lo>>(64-t) | num.hi<<t
	}
	return Rate{num: int64(p0), den: int64(p1), w2: p2, x: wideTag(neg, uint8(s))}, true
}

// fromWide256 is fromWide for a reduced fraction with 256-bit parts.
func fromWide256(neg bool, num, den u256) (Rate, bool) {
	n, ok1 := num.low128()
	d, ok2 := den.low128()
	if !ok1 || !ok2 {
		return Rate{}, false
	}
	return fromWide(neg, n, d)
}

// addWide returns r + o for operands in the int64 or 128-bit tier, and false
// when either operand or the sum needs big.Rat. It is Knuth's reduced
// addition: with g = gcd(rd, od) and t = rn·(od/g) + on·(rd/g), the sum is
// (t/g2) / ((rd/g)·(od/g2)) where g2 = gcd(t, g), already in lowest terms.
func addWide(r, o Rate) (Rate, bool) {
	rneg, rn, rd, rok := r.wide()
	oneg, on, od, ook := o.wide()
	if !rok || !ook {
		return Rate{}, false
	}
	g := gcd128(rd, od)
	if g == one128 {
		neg, t := addSigned(rneg, mul128(rn, od), oneg, mul128(on, rd))
		return fromWide256(neg, t, mul128(rd, od))
	}
	rdg := rd.quo(g)
	neg, t := addSigned(rneg, mul128(rn, od.quo(g)), oneg, mul128(on, rdg))
	if t.isZero() {
		return Zero, true
	}
	_, tg := divmod(t, g)
	if g2 := gcd128(g, tg); g2 != one128 {
		t, _ = divmod(t, g2)
		od = od.quo(g2)
	}
	return fromWide256(neg, t, mul128(rdg, od))
}

// cmpWide compares r and o for operands in the int64 or 128-bit tier by
// their 256-bit cross products, and reports false for anything else.
func cmpWide(r, o Rate) (int, bool) {
	rneg, rn, rd, rok := r.wide()
	oneg, on, od, ook := o.wide()
	if !rok || !ook {
		return 0, false
	}
	rsg, osg := sign(rneg, rn), sign(oneg, on)
	if rsg != osg {
		if rsg < osg {
			return -1, true
		}
		return 1, true
	}
	c := mul128(rn, od).cmp(mul128(on, rd))
	if rneg {
		c = -c
	}
	return c, true
}

func sign(neg bool, mag u128) int {
	switch {
	case mag.isZero():
		return 0
	case neg:
		return -1
	}
	return 1
}

// divIntWide returns r / n for n > 0 and r in the int64 or 128-bit tier.
func divIntWide(r Rate, n uint64) (Rate, bool) {
	neg, rn, rd, ok := r.wide()
	if !ok {
		return Rate{}, false
	}
	g := gcd64u(rn.mod64(n), n)
	return fromWide256(neg, rn.quo64(g).to256(), mul128(rd, u128{lo: n / g}))
}

// mulIntWide returns r · n for n > 0 and r in the int64 or 128-bit tier.
func mulIntWide(r Rate, n uint64) (Rate, bool) {
	neg, rn, rd, ok := r.wide()
	if !ok {
		return Rate{}, false
	}
	g := gcd64u(rd.mod64(n), n)
	return fromWide256(neg, mul128(rn, u128{lo: n / g}), rd.quo64(g).to256())
}

// bigInt returns a as a big.Int, negated when neg is set.
func (a u128) bigInt(neg bool) *big.Int {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], a.hi)
	binary.BigEndian.PutUint64(buf[8:], a.lo)
	x := new(big.Int).SetBytes(buf[:])
	if neg {
		x.Neg(x)
	}
	return x
}

// u128Of returns |x| for a big.Int with BitLen() <= 128.
func u128Of(x *big.Int) u128 {
	var buf [16]byte
	x.FillBytes(buf[:])
	return u128{hi: binary.BigEndian.Uint64(buf[:8]), lo: binary.BigEndian.Uint64(buf[8:])}
}

// appendU128 appends the decimal digits of a.
func appendU128(dst []byte, a u128) []byte {
	if a.hi == 0 {
		return strconv.AppendUint(dst, a.lo, 10)
	}
	const e19 = 10_000_000_000_000_000_000
	dst = appendU128(dst, a.quo64(e19))
	var buf [19]byte
	digits := strconv.AppendUint(buf[:0], a.mod64(e19), 10)
	dst = append(dst, "0000000000000000000"[len(digits):]...)
	return append(dst, digits...)
}
