// Package jsonenc appends JSON values in exactly the bytes
// encoding/json writes for them. It serves the encoders that write a
// whole document in one pass instead of building it and marshalling it
// through reflection: the as-of index's record (internal/temporal), the
// /v1/transfers body and the price table's rows (internal/serve). Each
// of those is tested, with a fuzz twin, against json.Marshal of the
// document it replaces.
package jsonenc

import (
	"encoding/json"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// AppendDay appends t's date as a JSON string in t's location:
// YYYY-MM-DD, as t.Format("2006-01-02") writes it, or "" for the zero
// time.
func AppendDay(b []byte, t time.Time) []byte {
	b = append(b, '"')
	if !t.IsZero() {
		if y, m, d := t.Date(); y >= 0 && y <= 9999 {
			b = append(b,
				byte('0'+y/1000), byte('0'+y/100%10), byte('0'+y/10%10), byte('0'+y%10), '-',
				byte('0'+m/10), byte('0'+m%10), '-',
				byte('0'+d/10), byte('0'+d%10))
		} else {
			b = t.AppendFormat(b, "2006-01-02")
		}
	}
	return append(b, '"')
}

const hexDigits = "0123456789abcdef"

// AppendString appends s as encoding/json writes a string: quoted, with
// quotes and backslashes backslash-escaped, control bytes as \b \f \n \r \t or
// \u00XX, '<', '>' and '&' as \u003c \u003e \u0026, invalid UTF-8 as
// \ufffd, and U+2028 and U+2029 as \u2028 and \u2029.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendFloat appends f as encoding/json writes a float64: the shortest
// representation, in exponent form below 1e-6 or from 1e21 in magnitude,
// with a one-digit negative exponent unpadded. NaN and ±Inf are
// encoding/json's UnsupportedValueError, and append nothing.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		_, err := json.Marshal(f)
		return b, err
	}
	format := byte('f')
	//lint:ignore floatcmp encoding/json keeps exact zero out of exponent form
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
