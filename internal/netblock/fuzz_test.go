package netblock

import "testing"

// FuzzPrefixFrom asserts PrefixFrom is total over the full (addr, bits)
// space and that every accepted prefix satisfies the package's canonical
// invariants: host bits zero, stable text round trip, the same text as
// the fmt rendering, and consistent containment arithmetic.
func FuzzPrefixFrom(f *testing.F) {
	f.Add(uint32(0x0A000000), 8)  // 10.0.0.0/8
	f.Add(uint32(0xC0A80101), 24) // host bits set: must canonicalize
	f.Add(uint32(0xFFFFFFFF), 32) // single address
	f.Add(uint32(0), 0)           // whole space
	f.Add(uint32(0x80000000), 1)  // top half
	f.Add(uint32(0xDEADBEEF), 33) // out of range
	f.Add(uint32(0xDEADBEEF), -1) // out of range
	f.Fuzz(func(t *testing.T, addr uint32, bits int) {
		p, err := PrefixFrom(Addr(addr), bits)
		if bits < 0 || bits > 32 {
			if err == nil {
				t.Fatalf("PrefixFrom(%#x, %d) accepted an invalid length", addr, bits)
			}
			return
		}
		if err != nil {
			t.Fatalf("PrefixFrom(%#x, %d): %v", addr, bits, err)
		}
		if p.Bits() != bits {
			t.Fatalf("Bits() = %d, want %d", p.Bits(), bits)
		}
		if got := p.Addr() &^ maskFor(bits); got != 0 {
			t.Fatalf("host bits survived canonicalization: %v has residue %#x", p, uint32(got))
		}
		if !p.Contains(Addr(addr)) {
			t.Fatalf("%v does not contain the address it was built from (%v)", p, Addr(addr))
		}
		if !p.Contains(p.First()) || !p.Contains(p.Last()) {
			t.Fatalf("%v does not contain its own range [%v, %v]", p, p.First(), p.Last())
		}
		if !p.Covers(p) || p.CoversStrictly(p) {
			t.Fatalf("self-coverage broken for %v", p)
		}
		if got, want := p.String(), fmtPrefix(p); got != want {
			t.Fatalf("String() = %q, want the fmt form %q", got, want)
		}
		if got, want := Addr(addr).String(), fmtAddr(Addr(addr)); got != want {
			t.Fatalf("Addr.String() = %q, want the fmt form %q", got, want)
		}
		rt, err := ParsePrefix(p.String())
		if err != nil {
			t.Fatalf("ParsePrefix(%q): %v", p.String(), err)
		}
		if rt != p {
			t.Fatalf("text round trip changed %v into %v", p, rt)
		}
		if bits > 0 {
			if !p.Parent().Covers(p) {
				t.Fatalf("parent %v does not cover %v", p.Parent(), p)
			}
			if sib := p.Sibling(); sib.Overlaps(p) {
				t.Fatalf("sibling %v overlaps %v", sib, p)
			}
		}
		if bits < 32 {
			lo, hi, err := p.Children()
			if err != nil {
				t.Fatalf("Children(%v): %v", p, err)
			}
			if !p.Covers(lo) || !p.Covers(hi) || lo.Overlaps(hi) {
				t.Fatalf("children of %v malformed: %v, %v", p, lo, hi)
			}
			if lo.NumAddrs()+hi.NumAddrs() != p.NumAddrs() {
				t.Fatalf("children of %v do not partition its %d addresses", p, p.NumAddrs())
			}
		}
	})
}

// FuzzParsePrefix asserts the textual parser is total over arbitrary
// strings and strict about canonical form: anything it accepts renders
// back to an equal prefix, and non-canonical spellings are rejected
// rather than silently fixed.
func FuzzParsePrefix(f *testing.F) {
	f.Add("10.0.0.0/8")
	f.Add("192.168.1.1/24") // host bits set: must be rejected
	f.Add("0.0.0.0/0")
	f.Add("255.255.255.255/32")
	f.Add("1.2.3.4")
	f.Add("1.2.3.4/33")
	f.Add("01.2.3.4/8") // leading zero: rejected
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePrefix(s)
		if err != nil {
			return
		}
		if got := p.Addr() &^ maskFor(p.Bits()); got != 0 {
			t.Fatalf("ParsePrefix(%q) accepted host bits: %v", s, p)
		}
		rt, err := ParsePrefix(p.String())
		if err != nil || rt != p {
			t.Fatalf("round trip of %q via %q failed: %v, %v", s, p.String(), rt, err)
		}
	})
}
