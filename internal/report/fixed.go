package report

import (
	"math"
	"strconv"
)

// appendFixed appends x with prec digits after the point: exactly
// strconv.AppendFloat(b, x, 'f', prec, 64), which is what fmt's %.Nf
// prints. strconv takes its slow multiprecision path for 'f' with a
// precision. When |x| >= 1 has n integer digits, 'e' to n+prec
// significant digits rounds at the same place and, up to 18 digits, takes
// strconv's fast fixed-precision path; appendFixed formats that and moves
// the point. Everything else goes to strconv's 'f'.
func appendFixed(b []byte, x float64, prec int) []byte {
	a := math.Abs(x)
	n := 1 // integer digits of a, or 19 when a >= 1e18 (powers of ten to 1e22 are exact)
	for n < 19 && a >= math.Pow10(n) {
		n++
	}
	if !(a >= 1) || prec < 0 || n+prec > 18 { // !(a >= 1) is true for NaN
		return strconv.AppendFloat(b, x, 'f', prec, 64)
	}
	var buf [32]byte
	e := strconv.AppendFloat(buf[:0], a, 'e', n+prec-1, 64) // d.ddde+XX
	exp := int(e[len(e)-2]-'0')*10 + int(e[len(e)-1]-'0')
	digits := e[:1]
	if len(e) > len("de+XX") {
		digits = append(digits, e[2:len(e)-4]...) // drop the point and the exponent
	}
	if exp == n {
		// Rounding carried into a new digit: the value is 10^n, and the
		// digit the carry pushed out of the fraction is a zero.
		digits = append(digits, '0')
	}
	if x < 0 {
		b = append(b, '-')
	}
	b = append(b, digits[:exp+1]...)
	if prec > 0 {
		b = append(b, '.')
		b = append(b, digits[exp+1:]...)
	}
	return b
}
