package bgp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"ipv4market/internal/netblock"
)

// mrtSeeds are well-formed MRT streams for FuzzMRTReader's corpus: a
// RIB snapshot with an AS_SET path, a multi-segment path and a default
// route, an announcing update, a withdraw-only update, and all of them
// in one stream.
func mrtSeeds(t testing.TB) [][]byte {
	var snap bytes.Buffer
	entries := []RIBEntry{
		{Prefix: pfx("8.8.8.0/24"), Routes: []PeerRoute{
			{PeerIndex: 0, Originated: ts(), Path: NewPath(64496, 15169), Origin: OriginIGP, NextHop: netblock.MustParseAddr("198.51.100.1")},
			{PeerIndex: 1, Originated: ts(), Path: NewPath(3320, 1299).AppendSet(64500, 64501), Origin: OriginIncomplete, NextHop: netblock.MustParseAddr("198.51.100.2")},
		}},
		{Prefix: pfx("0.0.0.0/0"), Routes: []PeerRoute{
			{PeerIndex: 1, Originated: ts(), Path: NewPath(3320), Origin: OriginEGP},
		}},
	}
	if err := WriteRIBSnapshot(&snap, ts(), netblock.MustParseAddr("192.0.2.1"), "fuzz", samplePeers(), entries); err != nil {
		t.Fatal(err)
	}
	var upd bytes.Buffer
	w := NewWriter(&upd)
	for _, u := range []UpdateRecord{
		{Timestamp: ts(), PeerAS: 3320, PeerIP: netblock.MustParseAddr("198.51.100.2"),
			Withdrawn: []netblock.Prefix{pfx("9.9.0.0/16")}, Announced: []netblock.Prefix{pfx("8.8.8.0/24"), pfx("10.0.0.0/8")},
			Path: NewPath(3320, 15169), Origin: OriginIGP, NextHop: netblock.MustParseAddr("198.51.100.2")},
		{Timestamp: ts(), PeerAS: 64496, PeerIP: netblock.MustParseAddr("198.51.100.1"),
			Withdrawn: []netblock.Prefix{pfx("8.8.8.0/24")}},
	} {
		if err := w.WriteUpdate(u, 64511, netblock.MustParseAddr("192.0.2.1")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// An update whose attributes come without NLRI: the announcing
	// update's record with its one 2-byte NLRI cut off and both lengths,
	// the MRT record's and the BGP message's, shortened to match.
	var bare bytes.Buffer
	w = NewWriter(&bare)
	if err := w.WriteUpdate(UpdateRecord{
		Timestamp: ts(), PeerAS: 3320, Withdrawn: []netblock.Prefix{pfx("9.9.0.0/16")}, Announced: []netblock.Prefix{pfx("10.0.0.0/8")},
		Path: NewPath(3320, 15169), Origin: OriginEGP, NextHop: netblock.MustParseAddr("198.51.100.2"),
	}, 64511, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	noNLRI := bare.Bytes()[:bare.Len()-2]
	binary.BigEndian.PutUint32(noNLRI[8:], binary.BigEndian.Uint32(noNLRI[8:])-2)
	const msgLenAt = 12 + 20 + 16 // MRT header, BGP4MP header, BGP marker
	binary.BigEndian.PutUint16(noNLRI[msgLenAt:], binary.BigEndian.Uint16(noNLRI[msgLenAt:])-2)
	return [][]byte{snap.Bytes(), upd.Bytes(), append(snap.Bytes(), upd.Bytes()...), noNLRI}
}

// reencode writes rec back out with Writer: the record kind it holds,
// with a collector ID, view name, local AS and local address the record
// does not carry.
func reencode(t *testing.T, rec Record) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var err error
	switch {
	case rec.Peers != nil:
		err = w.WritePeerIndexTable(rec.Timestamp, 0, "", rec.Peers)
	case rec.RIB != nil:
		err = w.WriteRIBEntry(rec.Timestamp, 0, *rec.RIB)
	case rec.Update != nil:
		err = w.WriteUpdate(*rec.Update, 0, 0)
	default:
		t.Fatalf("Next returned an empty record: %+v", rec)
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzMRTReader feeds arbitrary bytes to the MRT reader, which parses
// untrusted collector dumps. On any input it must return records or an
// error, never panic, and every record it decodes must survive a round
// trip: re-encoded with Writer and read back, it decodes to the same
// record. The corpus starts from WriteRIBSnapshot and WriteUpdate
// output.
func FuzzMRTReader(f *testing.F) {
	for _, s := range mrtSeeds(f) {
		f.Add(s)
		f.Add(s[:len(s)-3])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for {
			rec, err := r.Next()
			if err != nil {
				return
			}
			back, err := NewReader(bytes.NewReader(reencode(t, rec))).Next()
			if err != nil {
				t.Fatalf("re-encoded record rejected: %v\nrecord: %+v", err, rec)
			}
			if !reflect.DeepEqual(back, rec) {
				t.Fatalf("round trip changed the record:\n got %s\nwant %s", describe(back), describe(rec))
			}
		}
	})
}

// describe renders a record with its RIB entry or update spelled out.
func describe(rec Record) string {
	switch {
	case rec.RIB != nil:
		return fmt.Sprintf("%v RIB %+v", rec.Timestamp, *rec.RIB)
	case rec.Update != nil:
		return fmt.Sprintf("%v update %+v", rec.Timestamp, *rec.Update)
	}
	return fmt.Sprintf("%v peers %+v", rec.Timestamp, rec.Peers)
}
