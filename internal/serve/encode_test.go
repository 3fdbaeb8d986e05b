package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// checkIndent holds appendIndent and encodeJSON to their oracle,
// json.MarshalIndent with a two-space indent, at both prefixes the
// package uses: "" for whole bodies and "    " for price-table rows.
func checkIndent(t *testing.T, v any) {
	t.Helper()
	src, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("Marshal(%#v): %v", v, err)
	}
	for _, prefix := range []string{"", "    "} {
		want, err := json.MarshalIndent(v, prefix, "  ")
		if err != nil {
			t.Fatalf("MarshalIndent(%#v): %v", v, err)
		}
		if got := appendIndent(nil, src, prefix); !bytes.Equal(got, want) {
			t.Fatalf("prefix %q: indent of %s\n got %q\nwant %q", prefix, src, got, want)
		}
		if got := appendIndent([]byte("x"), src, prefix); !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Fatalf("prefix %q: appendIndent does not append to dst: %q", prefix, got)
		}
	}
	want, _ := json.MarshalIndent(v, "", "  ")
	got, err := encodeJSON(v)
	if err != nil {
		t.Fatalf("encodeJSON(%#v): %v", v, err)
	}
	if !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("encodeJSON(%#v) = %q, want MarshalIndent plus a newline", v, got)
	}
}

// TestIndentMatchesMarshalIndent is the indenter's table of hard cases:
// escapes that end or sit next to a string's closing quote, structural
// characters inside strings, empty and deeply nested containers, and
// the number forms Marshal writes in exponent notation.
func TestIndentMatchesMarshalIndent(t *testing.T) {
	type row struct {
		Prefix string   `json:"prefix"`
		Price  float64  `json:"price,omitempty"`
		Tags   []string `json:"tags"`
		Next   *row     `json:"next,omitempty"`
	}
	deep := any("leaf")
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			deep = []any{deep, i}
		} else {
			deep = map[string]any{"k": deep, "empty": map[string]any{}}
		}
	}
	cases := map[string]any{
		"quote":              `say "hi"`,
		"backslash":          `a\b`,
		"trailing backslash": `ends with \`,
		"escaped then quote": `\"`,
		"only backslashes":   `\\\\`,
		"html":               "<a href=\"x\">&amp;</a>",
		"line separators":    "\u2028\u2029",
		"control":            "\x00\x01\t\n\r\x1f\x7f",
		"invalid utf8":       "\xff\xfe",
		"structural in string": map[string]string{
			"{[": "]},:", `"`: `\`, ",": ":", "}": "{",
		},
		"empty array":     []int{},
		"empty object":    map[string]int{},
		"nil slice":       []int(nil),
		"nested empties":  []any{[]any{}, map[string]any{}},
		"empty in object": map[string]any{"a": []any{}, "b": map[string]any{}, "c": []any{[]any{}}},
		"deep":            deep,
		"numbers":         []any{0, -1, 1.5, 1e-07, 1e+21, 1e20, -2.5e-10, math.MaxInt64, uint64(math.MaxUint64)},
		"literals":        []any{true, false, nil},
		"struct":          row{Prefix: "10.0.0.0/8", Price: 12.25, Tags: []string{"a", `"b"`}, Next: &row{Tags: []string{}}},
		"raw message":     map[string]json.RawMessage{"r": json.RawMessage(` { "x" : [ 1 , 2 ] } `)},
		"scalar string":   "plain",
		"scalar number":   42,
		"long string":     strings.Repeat(`ab\"{[,:`, 500),
		"unicode keys":    map[string]int{"é": 1, " ": 2, "日本": 3},
		"bytes":           []byte("base64 body"),
		"many siblings":   map[string][]int{"a": {1, 2, 3}, "b": {4}, "c": nil},
	}
	for name, v := range cases {
		t.Run(name, func(t *testing.T) { checkIndent(t, v) })
	}
}

// FuzzIndentJSON checks the indenter against json.MarshalIndent on
// arbitrary documents: input that parses as JSON is re-marshalled,
// anything else is carried as string keys and values, which exercises
// Marshal's escaping.
func FuzzIndentJSON(f *testing.F) {
	for _, seed := range []string{
		`{"a":[1,2,{"b":null}],"c":{}}`,
		`[[],{},[[]],{"":[]}]`,
		`"\\"`,
		`{"k\"":"v\\"," ":"<&>"}`,
		`[1e-07,1e+21,-0.5,123456789012345678901234567890]`,
		`ends with \`,
		"\x00\"\\\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		var v any
		if json.Unmarshal([]byte(doc), &v) != nil {
			v = map[string]any{doc: []any{doc, map[string]any{}, []any{}}}
		}
		checkIndent(t, v)
	})
}
