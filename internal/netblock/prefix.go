// Package netblock provides IPv4 prefix arithmetic for the address-market
// analyses: a compact value type for CIDR prefixes, containment and
// adjacency tests, splitting and supernetting, disjoint interval sets, and
// a binary radix trie keyed by prefix.
//
// All types treat a prefix as the pair (network address, mask length) with
// host bits forced to zero, so prefixes are canonical and comparable with ==.
package netblock

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Addr is an IPv4 address represented as a big-endian 32-bit integer.
type Addr uint32

// AddrFrom4 builds an Addr from four dotted-quad octets.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses a dotted-quad IPv4 address.
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("netblock: invalid IPv4 address %q", s)
	}
	var v uint32
	for _, p := range parts {
		if p == "" || len(p) > 3 {
			return 0, fmt.Errorf("netblock: invalid IPv4 address %q", s)
		}
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 {
			return 0, fmt.Errorf("netblock: invalid IPv4 address %q", s)
		}
		if len(p) > 1 && p[0] == '0' {
			return 0, fmt.Errorf("netblock: leading zero in IPv4 address %q", s)
		}
		v = v<<8 | uint32(n)
	}
	return Addr(v), nil
}

// MustParseAddr is ParseAddr that panics on error; for tests and literals.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String renders the address in dotted-quad form.
func (a Addr) String() string {
	var buf [len("255.255.255.255")]byte
	return string(a.AppendTo(buf[:0]))
}

// AppendTo appends the dotted-quad form of a to b and returns the
// extended buffer. It allocates only when b lacks the capacity.
func (a Addr) AppendTo(b []byte) []byte {
	b = strconv.AppendUint(b, uint64(byte(a>>24)), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(byte(a>>16)), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(byte(a>>8)), 10)
	b = append(b, '.')
	return strconv.AppendUint(b, uint64(byte(a)), 10)
}

// Prefix is an IPv4 CIDR prefix in canonical form: all bits below the mask
// are zero. The zero value is 0.0.0.0/0.
type Prefix struct {
	addr Addr
	bits uint8
}

// PrefixFrom builds a canonical prefix from an address and mask length,
// zeroing any host bits. It returns an error if bits is outside [0, 32];
// use ParsePrefix for untrusted textual input.
func PrefixFrom(addr Addr, bits int) (Prefix, error) {
	if bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("netblock: invalid prefix length %d", bits)
	}
	return Prefix{addr & maskFor(bits), uint8(bits)}, nil
}

// MustPrefix is PrefixFrom that panics on error. It is for tests and for
// call sites whose mask length is a constant or already validated to be
// in [0, 32]; code handling untrusted lengths should use PrefixFrom.
func MustPrefix(addr Addr, bits int) Prefix {
	p, err := PrefixFrom(addr, bits)
	if err != nil {
		panic(err)
	}
	return p
}

func maskFor(bits int) Addr {
	if bits == 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - uint(bits)))
}

// ParsePrefix parses "a.b.c.d/len". Host bits must be zero; a prefix such
// as 10.0.0.1/24 is rejected so that data errors surface rather than being
// silently canonicalized.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("netblock: missing '/' in prefix %q", s)
	}
	addr, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("netblock: invalid prefix length in %q", s)
	}
	if addr&^maskFor(bits) != 0 {
		return Prefix{}, fmt.Errorf("netblock: host bits set in prefix %q", s)
	}
	return Prefix{addr, uint8(bits)}, nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Addr returns the network address of the prefix.
func (p Prefix) Addr() Addr { return p.addr }

// Bits returns the mask length.
func (p Prefix) Bits() int { return int(p.bits) }

// String renders the prefix in CIDR notation.
func (p Prefix) String() string {
	var buf [len("255.255.255.255/32")]byte
	return string(p.AppendTo(buf[:0]))
}

// AppendTo appends the CIDR form of p to b and returns the extended
// buffer. It allocates only when b lacks the capacity.
func (p Prefix) AppendTo(b []byte) []byte {
	b = p.addr.AppendTo(b)
	b = append(b, '/')
	return strconv.AppendUint(b, uint64(p.bits), 10)
}

// NumAddrs returns the number of addresses covered by the prefix.
func (p Prefix) NumAddrs() uint64 {
	return 1 << (32 - uint(p.bits))
}

// First returns the first (network) address of the prefix.
func (p Prefix) First() Addr { return p.addr }

// Last returns the last address of the prefix.
func (p Prefix) Last() Addr {
	return p.addr | ^maskFor(int(p.bits))
}

// Contains reports whether the prefix covers address a.
func (p Prefix) Contains(a Addr) bool {
	return a&maskFor(int(p.bits)) == p.addr
}

// Covers reports whether p covers the whole of q, i.e. q is equal to or
// more specific than p and within p's range.
func (p Prefix) Covers(q Prefix) bool {
	return q.bits >= p.bits && p.Contains(q.addr)
}

// CoversStrictly reports whether p covers q and q is strictly more specific.
func (p Prefix) CoversStrictly(q Prefix) bool {
	return q.bits > p.bits && p.Contains(q.addr)
}

// Overlaps reports whether the two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.Covers(q) || q.Covers(p)
}

// Parent returns the enclosing prefix one bit shorter. Calling Parent on
// 0.0.0.0/0 returns it unchanged.
func (p Prefix) Parent() Prefix {
	if p.bits == 0 {
		return p
	}
	b := int(p.bits) - 1
	return Prefix{p.addr & maskFor(b), uint8(b)}
}

// Children splits the prefix into its two halves. It returns an error on
// a /32, which has no halves.
func (p Prefix) Children() (Prefix, Prefix, error) {
	if p.bits == 32 {
		return Prefix{}, Prefix{}, errors.New("netblock: cannot split a /32")
	}
	b := uint(p.bits) + 1
	lo := Prefix{p.addr, uint8(b)}
	hi := Prefix{p.addr | Addr(1)<<(32-b), uint8(b)}
	return lo, hi, nil
}

// Split divides the prefix into subprefixes of the given length. It returns
// an error if bits is shorter than the prefix or longer than 32.
func (p Prefix) Split(bits int) ([]Prefix, error) {
	if bits < int(p.bits) || bits > 32 {
		return nil, fmt.Errorf("netblock: cannot split %v into /%d", p, bits)
	}
	n := 1 << uint(bits-int(p.bits))
	out := make([]Prefix, 0, n)
	step := Addr(1) << (32 - uint(bits))
	a := p.addr
	for i := 0; i < n; i++ {
		out = append(out, Prefix{a, uint8(bits)})
		a += step
	}
	return out, nil
}

// Sibling returns the other half of the parent prefix. Calling Sibling on
// 0.0.0.0/0 returns it unchanged.
func (p Prefix) Sibling() Prefix {
	if p.bits == 0 {
		return p
	}
	return Prefix{p.addr ^ Addr(1)<<(32-uint(p.bits)), p.bits}
}

// Compare orders prefixes by network address, then by mask length
// (less-specific first). It returns -1, 0, or +1.
func (p Prefix) Compare(q Prefix) int {
	switch {
	case p.addr < q.addr:
		return -1
	case p.addr > q.addr:
		return 1
	case p.bits < q.bits:
		return -1
	case p.bits > q.bits:
		return 1
	}
	return 0
}

// SortPrefixes sorts prefixes in Compare order in place.
func SortPrefixes(ps []Prefix) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Compare(ps[j]) < 0 })
}

// SumAddrs returns the total number of addresses covered by the prefixes.
// Overlapping prefixes are counted multiply; deduplicate with a Set first
// if overlap is possible.
func SumAddrs(ps []Prefix) uint64 {
	var n uint64
	for _, p := range ps {
		if n > math.MaxUint64-p.NumAddrs() {
			return math.MaxUint64
		}
		n += p.NumAddrs()
	}
	return n
}
