package rate

// Tier names the representation r is stored in: "int64", "wide" (the
// inline 128-bit tier), "big" or "inf". Tests use it to pin which tier a
// value or an operation lands in.
func Tier(r Rate) string {
	return [...]string{tierInt: "int64", tierWide: "wide", tierBig: "big", tierInf: "inf"}[r.tier()]
}
