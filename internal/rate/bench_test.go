package rate

import (
	"math/big"
	"testing"
)

// benchOperands returns operand pairs for each tier, shaped like the rates
// the protocol handles there: small-denominator fractions of a link
// capacity (int64), B_e compositions with 80-bit numerators and 30-bit
// denominators (wide), and values past 2^127 (big).
func benchOperands() []struct {
	name string
	a, b Rate
} {
	return []struct {
		name string
		a, b Rate
	}{
		{"int64", FromFrac(100_000_000, 3), FromFrac(250_000_000, 7)},
		{"wide", FromBigRat(new(big.Rat).SetFrac(pow2(80, 3), pow2(30, 1))),
			FromBigRat(new(big.Rat).SetFrac(pow2(78, -7), pow2(31, 3)))},
		{"big", FromBigRat(new(big.Rat).SetFrac(pow2(140, 3), pow2(30, 1))),
			FromBigRat(new(big.Rat).SetFrac(pow2(138, -7), pow2(31, 3)))},
	}
}

var (
	sinkRate Rate
	sinkInt  int
)

func BenchmarkRateAdd(b *testing.B) {
	for _, o := range benchOperands() {
		b.Run(o.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sinkRate = o.a.Add(o.b)
			}
		})
	}
}

func BenchmarkRateCmp(b *testing.B) {
	for _, o := range benchOperands() {
		b.Run(o.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sinkInt = o.a.Cmp(o.b)
			}
		})
	}
}

func BenchmarkRateDivInt(b *testing.B) {
	for _, o := range benchOperands() {
		b.Run(o.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sinkRate = o.a.DivInt(97)
			}
		})
	}
}

// BenchmarkRateBottleneck times B_e = (C_e - Σ λ)/|R_e|, the formula every
// link evaluates on each Probe and Response.
func BenchmarkRateBottleneck(b *testing.B) {
	for _, o := range benchOperands() {
		b.Run(o.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sinkRate = o.a.Sub(o.b).DivInt(97)
			}
		})
	}
}
