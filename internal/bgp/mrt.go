package bgp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"ipv4market/internal/netblock"
)

// This file implements the subset of the MRT format (RFC 6396) that BGP
// collectors publish and the paper's pipeline consumes: TABLE_DUMP_V2 RIB
// snapshots (PEER_INDEX_TABLE + RIB_IPV4_UNICAST) and BGP4MP_MESSAGE_AS4
// update records. Encoding is byte-accurate so that the decoder doubles as
// a validator for real collector output.

// MRT record types and subtypes.
const (
	mrtTypeTableDumpV2 = 13
	mrtTypeBGP4MP      = 16

	subtypePeerIndexTable = 1
	subtypeRIBIPv4Unicast = 2
	subtypeBGP4MPMessage4 = 4 // BGP4MP_MESSAGE_AS4
)

// BGP message types and attribute codes.
const (
	bgpMsgUpdate = 2

	attrOrigin  = 1
	attrASPath  = 2
	attrNextHop = 3

	attrFlagTransitive = 0x40
	attrFlagExtLen     = 0x10
)

// ErrMalformed reports a structurally invalid MRT stream.
var ErrMalformed = errors.New("bgp: malformed MRT data")

// PeerEntry describes one collector peer (monitor) in a PEER_INDEX_TABLE.
type PeerEntry struct {
	BGPID netblock.Addr // peer router ID
	IP    netblock.Addr // peer address (IPv4 only here)
	AS    ASN
}

// RIBEntry is one prefix's per-peer route set in a RIB snapshot.
type RIBEntry struct {
	Prefix netblock.Prefix
	Routes []PeerRoute
}

// PeerRoute is a single peer's route within a RIBEntry.
type PeerRoute struct {
	PeerIndex  uint16
	Originated time.Time
	Path       ASPath
	Origin     Origin
	NextHop    netblock.Addr
}

// UpdateRecord is a decoded BGP4MP update message.
type UpdateRecord struct {
	Timestamp time.Time
	PeerAS    ASN
	PeerIP    netblock.Addr
	Withdrawn []netblock.Prefix
	Announced []netblock.Prefix
	Path      ASPath
	Origin    Origin
	NextHop   netblock.Addr
}

// ---- encoding ----

// Writer emits MRT records to an underlying stream.
type Writer struct {
	w *bufio.Writer
}

// NewWriter returns an MRT writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Flush flushes buffered records to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

func (w *Writer) record(ts time.Time, typ, subtype uint16, body []byte) error {
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(ts.Unix()))
	binary.BigEndian.PutUint16(hdr[4:6], typ)
	binary.BigEndian.PutUint16(hdr[6:8], subtype)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(body)))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.w.Write(body)
	return err
}

// WritePeerIndexTable emits the PEER_INDEX_TABLE that must precede
// RIB_IPV4_UNICAST records in a snapshot.
func (w *Writer) WritePeerIndexTable(ts time.Time, collectorID netblock.Addr, viewName string, peers []PeerEntry) error {
	b := make([]byte, 0, 8+len(viewName)+len(peers)*13)
	b = be32(b, uint32(collectorID))
	b = be16(b, uint16(len(viewName)))
	b = append(b, viewName...)
	b = be16(b, uint16(len(peers)))
	for _, p := range peers {
		// Peer type: bit 0 = IPv6 address (never set here), bit 1 = AS4.
		b = append(b, 0x02)
		b = be32(b, uint32(p.BGPID))
		b = be32(b, uint32(p.IP))
		b = be32(b, uint32(p.AS))
	}
	return w.record(ts, mrtTypeTableDumpV2, subtypePeerIndexTable, b)
}

// WriteRIBEntry emits one RIB_IPV4_UNICAST record.
func (w *Writer) WriteRIBEntry(ts time.Time, seq uint32, e RIBEntry) error {
	b := make([]byte, 0, 64)
	b = be32(b, seq)
	b = appendNLRI(b, e.Prefix)
	b = be16(b, uint16(len(e.Routes)))
	for _, pr := range e.Routes {
		b = be16(b, pr.PeerIndex)
		b = be32(b, uint32(pr.Originated.Unix()))
		attrs := encodePathAttrs(pr.Path, pr.Origin, pr.NextHop)
		b = be16(b, uint16(len(attrs)))
		b = append(b, attrs...)
	}
	return w.record(ts, mrtTypeTableDumpV2, subtypeRIBIPv4Unicast, b)
}

// WriteUpdate emits a BGP4MP_MESSAGE_AS4 record carrying one UPDATE.
func (w *Writer) WriteUpdate(u UpdateRecord, localAS ASN, localIP netblock.Addr) error {
	msg := encodeUpdateMessage(u)
	b := make([]byte, 0, 20+len(msg))
	b = be32(b, uint32(u.PeerAS))
	b = be32(b, uint32(localAS))
	b = be16(b, 0) // interface index
	b = be16(b, 1) // AFI IPv4
	b = be32(b, uint32(u.PeerIP))
	b = be32(b, uint32(localIP))
	b = append(b, msg...)
	return w.record(u.Timestamp, mrtTypeBGP4MP, subtypeBGP4MPMessage4, b)
}

func encodeUpdateMessage(u UpdateRecord) []byte {
	var withdrawn []byte
	for _, p := range u.Withdrawn {
		withdrawn = appendNLRI(withdrawn, p)
	}
	// Path attributes go with announcements, and with any update that
	// carries them without NLRI, so a decoded update re-encodes to
	// itself; a withdraw-only update has none.
	var attrs []byte
	if len(u.Announced) > 0 || u.Path != nil || u.Origin != OriginIGP || u.NextHop != 0 {
		attrs = encodePathAttrs(u.Path, u.Origin, u.NextHop)
	}
	var nlri []byte
	for _, p := range u.Announced {
		nlri = appendNLRI(nlri, p)
	}
	body := make([]byte, 0, 4+len(withdrawn)+len(attrs)+len(nlri))
	body = be16(body, uint16(len(withdrawn)))
	body = append(body, withdrawn...)
	body = be16(body, uint16(len(attrs)))
	body = append(body, attrs...)
	body = append(body, nlri...)

	msg := make([]byte, 0, 19+len(body))
	for i := 0; i < 16; i++ {
		msg = append(msg, 0xff) // marker
	}
	msg = be16(msg, uint16(19+len(body)))
	msg = append(msg, bgpMsgUpdate)
	msg = append(msg, body...)
	return msg
}

func encodePathAttrs(path ASPath, origin Origin, nextHop netblock.Addr) []byte {
	var b []byte
	// ORIGIN
	b = append(b, attrFlagTransitive, attrOrigin, 1, byte(origin))
	// AS_PATH (AS4: 4-byte ASNs)
	var ap []byte
	for _, seg := range path {
		ap = append(ap, seg.Type, byte(len(seg.ASNs)))
		for _, a := range seg.ASNs {
			ap = be32(ap, uint32(a))
		}
	}
	if len(ap) > 255 {
		b = append(b, attrFlagTransitive|attrFlagExtLen, attrASPath)
		b = be16(b, uint16(len(ap)))
	} else {
		b = append(b, attrFlagTransitive, attrASPath, byte(len(ap)))
	}
	b = append(b, ap...)
	// NEXT_HOP
	b = append(b, attrFlagTransitive, attrNextHop, 4)
	b = be32(b, uint32(nextHop))
	return b
}

func appendNLRI(b []byte, p netblock.Prefix) []byte {
	b = append(b, byte(p.Bits()))
	nbytes := (p.Bits() + 7) / 8
	addr := uint32(p.Addr())
	for i := 0; i < nbytes; i++ {
		b = append(b, byte(addr>>(24-8*i)))
	}
	return b
}

func be16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }
func be32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// ---- decoding ----

// maxExactBody is the largest record body read into one buffer of the
// length the header claims.
const maxExactBody = 64 << 10

// body reads a record body of length bytes. A larger body than
// maxExactBody is read as it arrives, so a truncated stream whose header
// claims a huge length costs only the bytes it has.
func (r *Reader) body(length uint32) ([]byte, error) {
	if length <= maxExactBody {
		body := make([]byte, length)
		if _, err := io.ReadFull(r.r, body); err != nil {
			return nil, fmt.Errorf("%w: truncated body", ErrMalformed)
		}
		return body, nil
	}
	body, err := io.ReadAll(io.LimitReader(r.r, int64(length)))
	if err != nil || len(body) != int(length) {
		return nil, fmt.Errorf("%w: truncated body", ErrMalformed)
	}
	return body, nil
}

// Record is a decoded MRT record: exactly one of the fields is non-nil.
type Record struct {
	Timestamp time.Time
	Peers     []PeerEntry   // PEER_INDEX_TABLE
	RIB       *RIBEntry     // RIB_IPV4_UNICAST
	Update    *UpdateRecord // BGP4MP_MESSAGE_AS4
}

// Reader decodes MRT records from a stream.
type Reader struct {
	r *bufio.Reader
}

// NewReader returns an MRT reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Next decodes the next record. It returns io.EOF at a clean end of
// stream. Records of unknown type are skipped transparently.
func (r *Reader) Next() (Record, error) {
	for {
		var hdr [12]byte
		if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
			if err == io.ErrUnexpectedEOF {
				return Record{}, fmt.Errorf("%w: truncated header", ErrMalformed)
			}
			return Record{}, err
		}
		ts := time.Unix(int64(binary.BigEndian.Uint32(hdr[0:4])), 0).UTC()
		typ := binary.BigEndian.Uint16(hdr[4:6])
		subtype := binary.BigEndian.Uint16(hdr[6:8])
		length := binary.BigEndian.Uint32(hdr[8:12])
		if length > 64<<20 {
			return Record{}, fmt.Errorf("%w: record length %d", ErrMalformed, length)
		}
		body, err := r.body(length)
		if err != nil {
			return Record{}, err
		}
		switch {
		case typ == mrtTypeTableDumpV2 && subtype == subtypePeerIndexTable:
			peers, err := decodePeerIndexTable(body)
			if err != nil {
				return Record{}, err
			}
			return Record{Timestamp: ts, Peers: peers}, nil
		case typ == mrtTypeTableDumpV2 && subtype == subtypeRIBIPv4Unicast:
			e, err := decodeRIBEntry(body)
			if err != nil {
				return Record{}, err
			}
			return Record{Timestamp: ts, RIB: e}, nil
		case typ == mrtTypeBGP4MP && subtype == subtypeBGP4MPMessage4:
			u, err := decodeBGP4MP(ts, body)
			if err != nil {
				return Record{}, err
			}
			if u == nil {
				continue // non-UPDATE BGP message: skip
			}
			return Record{Timestamp: ts, Update: u}, nil
		default:
			continue // unknown record type: skip
		}
	}
}

type cursor struct {
	b   []byte
	off int
}

func (c *cursor) need(n int) error {
	if c.off+n > len(c.b) {
		return fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrMalformed, n, c.off, len(c.b))
	}
	return nil
}

func (c *cursor) u8() (uint8, error) {
	if err := c.need(1); err != nil {
		return 0, err
	}
	v := c.b[c.off]
	c.off++
	return v, nil
}

func (c *cursor) u16() (uint16, error) {
	if err := c.need(2); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint16(c.b[c.off:])
	c.off += 2
	return v, nil
}

func (c *cursor) u32() (uint32, error) {
	if err := c.need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v, nil
}

func (c *cursor) bytes(n int) ([]byte, error) {
	if err := c.need(n); err != nil {
		return nil, err
	}
	v := c.b[c.off : c.off+n]
	c.off += n
	return v, nil
}

func (c *cursor) nlri() (netblock.Prefix, error) {
	bits, err := c.u8()
	if err != nil {
		return netblock.Prefix{}, err
	}
	if bits > 32 {
		return netblock.Prefix{}, fmt.Errorf("%w: prefix length %d", ErrMalformed, bits)
	}
	nbytes := (int(bits) + 7) / 8
	raw, err := c.bytes(nbytes)
	if err != nil {
		return netblock.Prefix{}, err
	}
	var addr uint32
	for i, x := range raw {
		addr |= uint32(x) << (24 - 8*i)
	}
	return netblock.MustPrefix(netblock.Addr(addr), int(bits)), nil
}

func decodePeerIndexTable(body []byte) ([]PeerEntry, error) {
	c := &cursor{b: body}
	if _, err := c.u32(); err != nil { // collector BGP ID
		return nil, err
	}
	nameLen, err := c.u16()
	if err != nil {
		return nil, err
	}
	if _, err := c.bytes(int(nameLen)); err != nil {
		return nil, err
	}
	count, err := c.u16()
	if err != nil {
		return nil, err
	}
	peers := make([]PeerEntry, 0, count)
	for i := 0; i < int(count); i++ {
		ptype, err := c.u8()
		if err != nil {
			return nil, err
		}
		var p PeerEntry
		id, err := c.u32()
		if err != nil {
			return nil, err
		}
		p.BGPID = netblock.Addr(id)
		if ptype&0x01 != 0 { // IPv6 peer address
			if _, err := c.bytes(16); err != nil {
				return nil, err
			}
		} else {
			ip, err := c.u32()
			if err != nil {
				return nil, err
			}
			p.IP = netblock.Addr(ip)
		}
		if ptype&0x02 != 0 { // AS4
			as, err := c.u32()
			if err != nil {
				return nil, err
			}
			p.AS = ASN(as)
		} else {
			as, err := c.u16()
			if err != nil {
				return nil, err
			}
			p.AS = ASN(as)
		}
		peers = append(peers, p)
	}
	return peers, nil
}

func decodeRIBEntry(body []byte) (*RIBEntry, error) {
	c := &cursor{b: body}
	if _, err := c.u32(); err != nil { // sequence
		return nil, err
	}
	prefix, err := c.nlri()
	if err != nil {
		return nil, err
	}
	count, err := c.u16()
	if err != nil {
		return nil, err
	}
	e := &RIBEntry{Prefix: prefix}
	for i := 0; i < int(count); i++ {
		idx, err := c.u16()
		if err != nil {
			return nil, err
		}
		orig, err := c.u32()
		if err != nil {
			return nil, err
		}
		alen, err := c.u16()
		if err != nil {
			return nil, err
		}
		araw, err := c.bytes(int(alen))
		if err != nil {
			return nil, err
		}
		path, origin, nextHop, err := decodePathAttrs(araw)
		if err != nil {
			return nil, err
		}
		e.Routes = append(e.Routes, PeerRoute{
			PeerIndex:  idx,
			Originated: time.Unix(int64(orig), 0).UTC(),
			Path:       path,
			Origin:     origin,
			NextHop:    nextHop,
		})
	}
	return e, nil
}

func decodeBGP4MP(ts time.Time, body []byte) (*UpdateRecord, error) {
	c := &cursor{b: body}
	peerAS, err := c.u32()
	if err != nil {
		return nil, err
	}
	if _, err := c.u32(); err != nil { // local AS
		return nil, err
	}
	if _, err := c.u16(); err != nil { // interface index
		return nil, err
	}
	afi, err := c.u16()
	if err != nil {
		return nil, err
	}
	if afi != 1 {
		return nil, nil // IPv6 update: skip
	}
	peerIP, err := c.u32()
	if err != nil {
		return nil, err
	}
	if _, err := c.u32(); err != nil { // local IP
		return nil, err
	}
	// BGP message header.
	if _, err := c.bytes(16); err != nil { // marker
		return nil, err
	}
	msgLen, err := c.u16()
	if err != nil {
		return nil, err
	}
	msgType, err := c.u8()
	if err != nil {
		return nil, err
	}
	if msgType != bgpMsgUpdate {
		return nil, nil
	}
	if int(msgLen) < 19 || c.off+int(msgLen)-19 > len(c.b) {
		return nil, fmt.Errorf("%w: BGP message length %d", ErrMalformed, msgLen)
	}

	u := &UpdateRecord{Timestamp: ts, PeerAS: ASN(peerAS), PeerIP: netblock.Addr(peerIP)}
	wlen, err := c.u16()
	if err != nil {
		return nil, err
	}
	wEnd := c.off + int(wlen)
	for c.off < wEnd {
		p, err := c.nlri()
		if err != nil {
			return nil, err
		}
		u.Withdrawn = append(u.Withdrawn, p)
	}
	alen, err := c.u16()
	if err != nil {
		return nil, err
	}
	araw, err := c.bytes(int(alen))
	if err != nil {
		return nil, err
	}
	if len(araw) > 0 {
		u.Path, u.Origin, u.NextHop, err = decodePathAttrs(araw)
		if err != nil {
			return nil, err
		}
	}
	for c.off < len(c.b) {
		p, err := c.nlri()
		if err != nil {
			return nil, err
		}
		u.Announced = append(u.Announced, p)
	}
	return u, nil
}

func decodePathAttrs(b []byte) (ASPath, Origin, netblock.Addr, error) {
	c := &cursor{b: b}
	var (
		path    ASPath
		origin  Origin = OriginIncomplete
		nextHop netblock.Addr
	)
	for c.off < len(c.b) {
		flags, err := c.u8()
		if err != nil {
			return nil, 0, 0, err
		}
		typ, err := c.u8()
		if err != nil {
			return nil, 0, 0, err
		}
		var alen int
		if flags&attrFlagExtLen != 0 {
			v, err := c.u16()
			if err != nil {
				return nil, 0, 0, err
			}
			alen = int(v)
		} else {
			v, err := c.u8()
			if err != nil {
				return nil, 0, 0, err
			}
			alen = int(v)
		}
		val, err := c.bytes(alen)
		if err != nil {
			return nil, 0, 0, err
		}
		switch typ {
		case attrOrigin:
			if len(val) != 1 {
				return nil, 0, 0, fmt.Errorf("%w: ORIGIN length %d", ErrMalformed, len(val))
			}
			origin = Origin(val[0])
		case attrASPath:
			p, err := decodeASPath(val)
			if err != nil {
				return nil, 0, 0, err
			}
			path = p
		case attrNextHop:
			if len(val) != 4 {
				return nil, 0, 0, fmt.Errorf("%w: NEXT_HOP length %d", ErrMalformed, len(val))
			}
			nextHop = netblock.Addr(binary.BigEndian.Uint32(val))
		}
	}
	return path, origin, nextHop, nil
}

func decodeASPath(b []byte) (ASPath, error) {
	c := &cursor{b: b}
	var path ASPath
	for c.off < len(c.b) {
		segType, err := c.u8()
		if err != nil {
			return nil, err
		}
		if segType != SegmentSet && segType != SegmentSequence {
			return nil, fmt.Errorf("%w: AS_PATH segment type %d", ErrMalformed, segType)
		}
		count, err := c.u8()
		if err != nil {
			return nil, err
		}
		seg := PathSegment{Type: segType, ASNs: make([]ASN, 0, count)}
		for i := 0; i < int(count); i++ {
			v, err := c.u32()
			if err != nil {
				return nil, err
			}
			seg.ASNs = append(seg.ASNs, ASN(v))
		}
		path = append(path, seg)
	}
	return path, nil
}

// WriteRIBSnapshot is a convenience that emits a full TABLE_DUMP_V2
// snapshot: the peer index table followed by one RIB entry per prefix.
func WriteRIBSnapshot(w io.Writer, ts time.Time, collectorID netblock.Addr, viewName string, peers []PeerEntry, entries []RIBEntry) error {
	mw := NewWriter(w)
	if err := mw.WritePeerIndexTable(ts, collectorID, viewName, peers); err != nil {
		return err
	}
	for i, e := range entries {
		if err := mw.WriteRIBEntry(ts, uint32(i), e); err != nil {
			return err
		}
	}
	return mw.Flush()
}

// ReadRIBSnapshot decodes a full snapshot written by WriteRIBSnapshot (or
// a real collector): it requires a PEER_INDEX_TABLE before any RIB entry.
func ReadRIBSnapshot(r io.Reader) ([]PeerEntry, []RIBEntry, error) {
	mr := NewReader(r)
	var peers []PeerEntry
	var entries []RIBEntry
	for {
		rec, err := mr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		switch {
		case rec.Peers != nil:
			peers = rec.Peers
		case rec.RIB != nil:
			if peers == nil {
				return nil, nil, fmt.Errorf("%w: RIB entry before PEER_INDEX_TABLE", ErrMalformed)
			}
			entries = append(entries, *rec.RIB)
		}
	}
	if peers == nil {
		return nil, nil, fmt.Errorf("%w: no PEER_INDEX_TABLE", ErrMalformed)
	}
	return peers, entries, nil
}
