package netblock

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"0.0.0.0", 0, true},
		{"255.255.255.255", 0xffffffff, true},
		{"192.0.2.1", AddrFrom4(192, 0, 2, 1), true},
		{"10.1.2.3", AddrFrom4(10, 1, 2, 3), true},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"256.0.0.0", 0, false},
		{"-1.0.0.0", 0, false},
		{"01.2.3.4", 0, false},
		{"a.b.c.d", 0, false},
		{"", 0, false},
		{"1..2.3", 0, false},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseAddr(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseAddr(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAddrStringRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		b, err := ParseAddr(a.String())
		return err == nil && b == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// fmtAddr and fmtPrefix are the fmt renderings Addr.String and
// Prefix.String produced before AppendTo; the tests hold the strconv
// path to them byte for byte.
func fmtAddr(a Addr) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

func fmtPrefix(p Prefix) string {
	return fmt.Sprintf("%s/%d", fmtAddr(p.Addr()), p.Bits())
}

// TestRenderingMatchesFmt covers every mask length against addresses
// built from the octets where the decimal width changes (0, 9/10,
// 99/100, 255), in every position.
func TestRenderingMatchesFmt(t *testing.T) {
	octets := []byte{0, 9, 10, 99, 100, 255}
	for bits := 0; bits <= 32; bits++ {
		for _, a := range octets {
			for _, b := range octets {
				for _, c := range octets {
					for _, d := range octets {
						addr := AddrFrom4(a, b, c, d)
						if got, want := addr.String(), fmtAddr(addr); got != want {
							t.Fatalf("Addr.String() = %q, want %q", got, want)
						}
						p := MustPrefix(addr, bits)
						if got, want := p.String(), fmtPrefix(p); got != want {
							t.Fatalf("Prefix.String() = %q, want %q", got, want)
						}
						if got, want := string(p.AppendTo([]byte("x"))), "x"+fmtPrefix(p); got != want {
							t.Fatalf("Prefix.AppendTo = %q, want %q", got, want)
						}
					}
				}
			}
		}
	}
}

// TestRenderingAllocs holds AppendTo into a sized buffer to no
// allocation and String to the one for its result.
func TestRenderingAllocs(t *testing.T) {
	p := MustParsePrefix("255.255.255.0/24")
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		buf = p.AppendTo(buf[:0])
		buf = p.Addr().AppendTo(buf)
	}); n != 0 {
		t.Errorf("AppendTo into a sized buffer: %v allocs, want 0", n)
	}
	var s string
	if n := testing.AllocsPerRun(100, func() { s = p.String() }); n != 1 {
		t.Errorf("Prefix.String: %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { s = p.Addr().String() }); n != 1 {
		t.Errorf("Addr.String: %v allocs, want 1", n)
	}
	_ = s
}

func TestParsePrefix(t *testing.T) {
	cases := []struct {
		in string
		ok bool
	}{
		{"0.0.0.0/0", true},
		{"10.0.0.0/8", true},
		{"192.0.2.0/24", true},
		{"192.0.2.1/32", true},
		{"192.0.2.1/24", false}, // host bits set
		{"192.0.2.0/33", false},
		{"192.0.2.0/-1", false},
		{"192.0.2.0", false},
		{"bogus/24", false},
	}
	for _, c := range cases {
		_, err := ParsePrefix(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParsePrefix(%q) err = %v, want ok=%v", c.in, err, c.ok)
		}
	}
}

func TestPrefixStringRoundTrip(t *testing.T) {
	f := func(v uint32, b uint8) bool {
		bits := int(b % 33)
		p := MustPrefix(Addr(v), bits)
		q, err := ParsePrefix(p.String())
		return err == nil && q == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrefixNumAddrs(t *testing.T) {
	if got := MustParsePrefix("0.0.0.0/0").NumAddrs(); got != 1<<32 {
		t.Errorf("/0 NumAddrs = %d", got)
	}
	if got := MustParsePrefix("10.0.0.0/24").NumAddrs(); got != 256 {
		t.Errorf("/24 NumAddrs = %d", got)
	}
	if got := MustParsePrefix("10.0.0.1/32").NumAddrs(); got != 1 {
		t.Errorf("/32 NumAddrs = %d", got)
	}
}

func TestPrefixContainsCovers(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/8")
	q := MustParsePrefix("10.1.0.0/16")
	r := MustParsePrefix("11.0.0.0/8")
	if !p.Contains(MustParseAddr("10.255.0.1")) {
		t.Error("10/8 should contain 10.255.0.1")
	}
	if p.Contains(MustParseAddr("11.0.0.0")) {
		t.Error("10/8 should not contain 11.0.0.0")
	}
	if !p.Covers(q) || q.Covers(p) {
		t.Error("covers relation wrong for 10/8 vs 10.1/16")
	}
	if !p.Covers(p) {
		t.Error("prefix must cover itself")
	}
	if p.CoversStrictly(p) {
		t.Error("prefix must not strictly cover itself")
	}
	if !p.CoversStrictly(q) {
		t.Error("10/8 strictly covers 10.1/16")
	}
	if p.Covers(r) || r.Covers(p) {
		t.Error("10/8 and 11/8 are disjoint")
	}
	if !p.Overlaps(q) || p.Overlaps(r) {
		t.Error("overlap relation wrong")
	}
}

func TestPrefixParentChildrenSibling(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/9")
	if got := p.Parent(); got != MustParsePrefix("10.0.0.0/8") {
		t.Errorf("Parent = %v", got)
	}
	lo, hi, err := MustParsePrefix("10.0.0.0/8").Children()
	if err != nil || lo != MustParsePrefix("10.0.0.0/9") || hi != MustParsePrefix("10.128.0.0/9") {
		t.Errorf("Children = %v, %v, %v", lo, hi, err)
	}
	if _, _, err := MustParsePrefix("192.0.2.1/32").Children(); err == nil {
		t.Error("Children(/32) should fail")
	}
	if got := lo.Sibling(); got != hi {
		t.Errorf("Sibling(%v) = %v, want %v", lo, got, hi)
	}
	root := MustParsePrefix("0.0.0.0/0")
	if root.Parent() != root || root.Sibling() != root {
		t.Error("root parent/sibling should be identity")
	}
}

func TestPrefixChildrenProperty(t *testing.T) {
	f := func(v uint32, b uint8) bool {
		bits := int(b % 32) // exclude /32
		p := MustPrefix(Addr(v), bits)
		lo, hi, err := p.Children()
		return err == nil && p.Covers(lo) && p.Covers(hi) && !lo.Overlaps(hi) &&
			lo.NumAddrs()+hi.NumAddrs() == p.NumAddrs() &&
			lo.Parent() == p && hi.Parent() == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrefixSplit(t *testing.T) {
	p := MustParsePrefix("192.0.2.0/24")
	subs, err := p.Split(26)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 4 {
		t.Fatalf("Split(/26) returned %d prefixes", len(subs))
	}
	want := []string{"192.0.2.0/26", "192.0.2.64/26", "192.0.2.128/26", "192.0.2.192/26"}
	for i, w := range want {
		if subs[i] != MustParsePrefix(w) {
			t.Errorf("subs[%d] = %v, want %s", i, subs[i], w)
		}
	}
	if _, err := p.Split(23); err == nil {
		t.Error("splitting into shorter prefix should fail")
	}
	if _, err := p.Split(33); err == nil {
		t.Error("splitting into /33 should fail")
	}
	same, err := p.Split(24)
	if err != nil || len(same) != 1 || same[0] != p {
		t.Errorf("Split(/24) = %v, %v", same, err)
	}
}

func TestPrefixFirstLast(t *testing.T) {
	p := MustParsePrefix("192.0.2.0/24")
	if p.First() != MustParseAddr("192.0.2.0") || p.Last() != MustParseAddr("192.0.2.255") {
		t.Errorf("First/Last = %v/%v", p.First(), p.Last())
	}
}

func TestCompareAndSort(t *testing.T) {
	ps := []Prefix{
		MustParsePrefix("10.0.0.0/16"),
		MustParsePrefix("10.0.0.0/8"),
		MustParsePrefix("9.0.0.0/8"),
		MustParsePrefix("10.1.0.0/16"),
	}
	SortPrefixes(ps)
	want := []string{"9.0.0.0/8", "10.0.0.0/8", "10.0.0.0/16", "10.1.0.0/16"}
	for i, w := range want {
		if ps[i].String() != w {
			t.Errorf("sorted[%d] = %v, want %s", i, ps[i], w)
		}
	}
	if MustParsePrefix("10.0.0.0/8").Compare(MustParsePrefix("10.0.0.0/8")) != 0 {
		t.Error("equal prefixes must compare 0")
	}
}

func TestSumAddrs(t *testing.T) {
	ps := []Prefix{MustParsePrefix("10.0.0.0/24"), MustParsePrefix("10.0.1.0/25")}
	if got := SumAddrs(ps); got != 256+128 {
		t.Errorf("SumAddrs = %d", got)
	}
}

func TestSpecialPurpose(t *testing.T) {
	if !IsSpecialPurpose(MustParsePrefix("10.0.0.0/8")) {
		t.Error("10/8 is special purpose")
	}
	if !IsSpecialPurpose(MustParsePrefix("10.1.0.0/16")) {
		t.Error("subnets of 10/8 are special purpose")
	}
	if !IsSpecialPurpose(MustParsePrefix("0.0.0.0/0")) {
		t.Error("default route overlaps special space")
	}
	if IsSpecialPurpose(MustParsePrefix("193.0.0.0/8")) {
		t.Error("193/8 is routable")
	}
	if !IsGloballyRoutable(MustParsePrefix("8.8.8.0/24")) {
		t.Error("8.8.8.0/24 is routable")
	}
	if IsGloballyRoutable(MustParsePrefix("100.64.0.0/10")) {
		t.Error("CGN space is not routable")
	}
}
