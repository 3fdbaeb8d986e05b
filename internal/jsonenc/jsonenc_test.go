package jsonenc

import (
	"encoding/json"
	"math"
	"testing"
	"time"
)

// TestAppendMatchesMarshal holds each appender to json.Marshal of the
// same value: strings needing every escape, floats at the exponent
// cutoffs (NaN and ±Inf failing alike), and dates at and beyond the
// four-digit years.
func TestAppendMatchesMarshal(t *testing.T) {
	for _, s := range []string{
		"", "plain", `say "hi"`, `back\slash`, "<script>&amp;</script>",
		"nul\x00 soh\x01 us\x1f del\x7f", "\b\f\n\r\t", "Zürich – 東京 🌐",
		"bad \xff\xfe bytes", "cut \xe2\x82", "sep\u2028para\u2029end", "\u2027\u202a",
	} {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, json.Marshal %s", s, got, want)
		}
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1e-7, 1e-6, 9.99e-7, 1e20, 1e21, 0.1, -1.5, 25,
		123456789.125, 5e-324, math.MaxFloat64, -1e-9, math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		want, wantErr := json.Marshal(f)
		got, gotErr := AppendFloat(nil, f)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Errorf("AppendFloat(%v) error %v, json.Marshal error %v", f, gotErr, wantErr)
		} else if string(got) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, json.Marshal %s", f, got, want)
		}
	}
	for _, d := range []time.Time{
		{}, time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC), time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC),
		time.Date(9999, 12, 31, 23, 0, 0, 0, time.FixedZone("x", 3600)), time.Date(12345, 1, 2, 0, 0, 0, 0, time.UTC),
		time.Date(-7, 3, 4, 0, 0, 0, 0, time.UTC),
	} {
		s := ""
		if !d.IsZero() {
			s = d.Format("2006-01-02")
		}
		want, _ := json.Marshal(s)
		if got := AppendDay(nil, d); string(got) != string(want) {
			t.Errorf("AppendDay(%v) = %s, want %s", d, got, want)
		}
	}
}
