package bgp

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ipv4market/internal/netblock"
)

func ts() time.Time { return time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC) }

func samplePeers() []PeerEntry {
	return []PeerEntry{
		{BGPID: netblock.MustParseAddr("198.51.100.1"), IP: netblock.MustParseAddr("198.51.100.1"), AS: 64496},
		{BGPID: netblock.MustParseAddr("198.51.100.2"), IP: netblock.MustParseAddr("198.51.100.2"), AS: 3320},
	}
}

func TestRIBSnapshotRoundTrip(t *testing.T) {
	peers := samplePeers()
	entries := []RIBEntry{
		{
			Prefix: pfx("8.8.8.0/24"),
			Routes: []PeerRoute{
				{PeerIndex: 0, Originated: ts(), Path: NewPath(64496, 15169), Origin: OriginIGP, NextHop: netblock.MustParseAddr("198.51.100.1")},
				{PeerIndex: 1, Originated: ts(), Path: NewPath(3320, 15169), Origin: OriginIGP, NextHop: netblock.MustParseAddr("198.51.100.2")},
			},
		},
		{
			Prefix: pfx("185.0.0.0/16"),
			Routes: []PeerRoute{
				{PeerIndex: 1, Originated: ts(), Path: NewPath(3320, 1299).AppendSet(64500, 64501), Origin: OriginIncomplete, NextHop: netblock.MustParseAddr("198.51.100.2")},
			},
		},
		{
			Prefix: pfx("0.0.0.0/0"),
			Routes: []PeerRoute{
				{PeerIndex: 0, Originated: ts(), Path: NewPath(64496), Origin: OriginEGP, NextHop: netblock.MustParseAddr("198.51.100.1")},
			},
		},
	}
	var buf bytes.Buffer
	if err := WriteRIBSnapshot(&buf, ts(), netblock.MustParseAddr("192.0.2.1"), "test-view", peers, entries); err != nil {
		t.Fatal(err)
	}
	gotPeers, gotEntries, err := ReadRIBSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotPeers) != 2 || gotPeers[1].AS != 3320 || gotPeers[0].IP != peers[0].IP {
		t.Errorf("peers = %+v", gotPeers)
	}
	if len(gotEntries) != 3 {
		t.Fatalf("entries = %d", len(gotEntries))
	}
	for i, e := range gotEntries {
		want := entries[i]
		if e.Prefix != want.Prefix || len(e.Routes) != len(want.Routes) {
			t.Fatalf("entry %d: %+v", i, e)
		}
		for j, pr := range e.Routes {
			w := want.Routes[j]
			if pr.PeerIndex != w.PeerIndex || pr.Path.String() != w.Path.String() ||
				pr.Origin != w.Origin || pr.NextHop != w.NextHop {
				t.Errorf("entry %d route %d = %+v, want %+v", i, j, pr, w)
			}
		}
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	u := UpdateRecord{
		Timestamp: ts(),
		PeerAS:    3320,
		PeerIP:    netblock.MustParseAddr("198.51.100.2"),
		Withdrawn: []netblock.Prefix{pfx("9.9.9.0/24"), pfx("9.9.0.0/16")},
		Announced: []netblock.Prefix{pfx("8.8.8.0/24")},
		Path:      NewPath(3320, 15169),
		Origin:    OriginIGP,
		NextHop:   netblock.MustParseAddr("198.51.100.2"),
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteUpdate(u, 64496, netblock.MustParseAddr("192.0.2.1")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Update == nil {
		t.Fatal("expected update record")
	}
	g := rec.Update
	if g.PeerAS != u.PeerAS || g.PeerIP != u.PeerIP || !g.Timestamp.Equal(u.Timestamp) {
		t.Errorf("update header = %+v", g)
	}
	if len(g.Withdrawn) != 2 || g.Withdrawn[1] != pfx("9.9.0.0/16") {
		t.Errorf("withdrawn = %v", g.Withdrawn)
	}
	if len(g.Announced) != 1 || g.Announced[0] != pfx("8.8.8.0/24") {
		t.Errorf("announced = %v", g.Announced)
	}
	if g.Path.String() != "3320 15169" || g.Origin != OriginIGP || g.NextHop != u.NextHop {
		t.Errorf("attrs = %v %v %v", g.Path, g.Origin, g.NextHop)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestWithdrawOnlyUpdate(t *testing.T) {
	u := UpdateRecord{
		Timestamp: ts(),
		PeerAS:    3320,
		PeerIP:    netblock.MustParseAddr("198.51.100.2"),
		Withdrawn: []netblock.Prefix{pfx("8.8.8.0/24")},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteUpdate(u, 64496, 0); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	rec, err := NewReader(bytes.NewReader(buf.Bytes())).Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Update == nil || len(rec.Update.Withdrawn) != 1 || len(rec.Update.Announced) != 0 {
		t.Errorf("record = %+v", rec.Update)
	}
}

func TestLongASPathExtendedLength(t *testing.T) {
	// Build a path longer than 255 bytes to exercise the extended-length
	// attribute encoding: 70 ASNs * 4 bytes + segment headers > 255.
	asns := make([]ASN, 70)
	for i := range asns {
		asns[i] = ASN(1000 + i)
	}
	entries := []RIBEntry{{
		Prefix: pfx("8.8.8.0/24"),
		Routes: []PeerRoute{{PeerIndex: 0, Originated: ts(), Path: NewPath(asns...), Origin: OriginIGP}},
	}}
	var buf bytes.Buffer
	if err := WriteRIBSnapshot(&buf, ts(), 0, "v", samplePeers(), entries); err != nil {
		t.Fatal(err)
	}
	_, got, err := ReadRIBSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Routes[0].Path.String() != NewPath(asns...).String() {
		t.Error("long path did not round-trip")
	}
}

func TestReaderSkipsUnknownRecordTypes(t *testing.T) {
	var buf bytes.Buffer
	// Unknown record (type 99), then a valid peer table.
	hdr := []byte{0, 0, 0, 0, 0, 99, 0, 1, 0, 0, 0, 4, 1, 2, 3, 4}
	buf.Write(hdr)
	w := NewWriter(&buf)
	if err := w.WritePeerIndexTable(ts(), 0, "v", samplePeers()); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	rec, err := NewReader(bytes.NewReader(buf.Bytes())).Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Peers == nil {
		t.Error("reader should skip the unknown record and return the peer table")
	}
}

func TestReaderErrorPaths(t *testing.T) {
	// Truncated header.
	if _, err := NewReader(bytes.NewReader([]byte{1, 2, 3})).Next(); err == nil {
		t.Error("truncated header should fail")
	}
	// Truncated body.
	hdr := []byte{0, 0, 0, 0, 0, 13, 0, 1, 0, 0, 0, 50}
	if _, err := NewReader(bytes.NewReader(hdr)).Next(); err == nil {
		t.Error("truncated body should fail")
	}
	// Insane length.
	bad := []byte{0, 0, 0, 0, 0, 13, 0, 1, 0xff, 0xff, 0xff, 0xff}
	if _, err := NewReader(bytes.NewReader(bad)).Next(); err == nil {
		t.Error("oversized record should fail")
	}
	// RIB entry without a peer table.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRIBEntry(ts(), 0, RIBEntry{Prefix: pfx("8.8.8.0/24")}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	if _, _, err := ReadRIBSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("RIB before peer table should fail")
	}
	// Empty stream: no peer table at all.
	if _, _, err := ReadRIBSnapshot(bytes.NewReader(nil)); err == nil {
		t.Error("empty snapshot should fail")
	}
}

// TestCorruptionFuzz flips bytes in a valid snapshot and checks the reader
// either errors cleanly or returns structurally valid records — never
// panics or hangs.
func TestCorruptionFuzz(t *testing.T) {
	peers := samplePeers()
	entries := []RIBEntry{{
		Prefix: pfx("8.8.8.0/24"),
		Routes: []PeerRoute{{PeerIndex: 0, Originated: ts(), Path: NewPath(64496, 15169), Origin: OriginIGP, NextHop: 1}},
	}}
	var buf bytes.Buffer
	if err := WriteRIBSnapshot(&buf, ts(), 0, "v", peers, entries); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		data := append([]byte(nil), orig...)
		for flips := 0; flips < 1+rng.Intn(4); flips++ {
			data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
		}
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 10; i++ {
			_, err := r.Next()
			if err != nil {
				break // io.EOF or a clean decode error: both fine
			}
		}
	}
}

func TestCollectorSnapshotAndSurvey(t *testing.T) {
	c := NewCollector("rrc00", netblock.MustParseAddr("193.0.0.1"))
	i0 := c.AddPeer(PeerEntry{IP: netblock.MustParseAddr("198.51.100.1"), AS: 6447, BGPID: 1})
	i1 := c.AddPeer(PeerEntry{IP: netblock.MustParseAddr("198.51.100.2"), AS: 3320, BGPID: 2})
	if c.NumPeers() != 2 || c.Peer(0).AS != 6447 {
		t.Fatal("peer setup")
	}
	c.PeerRIB(i0).Insert(Route{Prefix: pfx("8.8.8.0/24"), Path: NewPath(6447, 15169)})
	c.PeerRIB(i1).Insert(Route{Prefix: pfx("8.8.8.0/24"), Path: NewPath(3320, 15169)})
	c.PeerRIB(i1).Insert(Route{Prefix: pfx("10.0.0.0/8"), Path: NewPath(3320)}) // bogon

	// Live path.
	s := NewOriginSurvey()
	rep := c.AddViewsTo(s)
	if rep.SpecialSpace != 1 || rep.Kept != 2 {
		t.Errorf("sanitize report = %+v", rep)
	}
	if s.NumMonitors() != 2 {
		t.Errorf("monitors = %d", s.NumMonitors())
	}
	if got := s.CleanPairs(0.5)[pfx("8.8.8.0/24")]; got != 15169 {
		t.Errorf("origin = %v", got)
	}

	// Offline path: snapshot → parse → survey must agree.
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf, ts()); err != nil {
		t.Fatal(err)
	}
	gotPeers, gotEntries, err := ReadRIBSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewOriginSurvey()
	rep2 := SurveyFromSnapshot("rrc00", gotPeers, gotEntries, s2)
	if rep2.Kept != rep.Kept || rep2.SpecialSpace != rep.SpecialSpace {
		t.Errorf("offline report = %+v, live = %+v", rep2, rep)
	}
	if got := s2.CleanPairs(0.5)[pfx("8.8.8.0/24")]; got != 15169 {
		t.Errorf("offline origin = %v", got)
	}
	if c.MonitorID(0) != "rrc00:198.51.100.1" {
		t.Errorf("MonitorID = %q", c.MonitorID(0))
	}
}

// TestReaderLargeRecord covers a record body over maxExactBody, which
// the reader reads as it arrives: a peer table of 6,000 peers decodes
// whole, and the same stream cut short fails as truncated.
func TestReaderLargeRecord(t *testing.T) {
	peers := make([]PeerEntry, 6000)
	for i := range peers {
		peers[i] = PeerEntry{BGPID: netblock.Addr(i), IP: netblock.Addr(0xc6336400 + i), AS: ASN(64512 + i)}
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WritePeerIndexTable(ts(), 0, "big", peers); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	if buf.Len() <= maxExactBody+12 {
		t.Fatalf("peer table is %d bytes, want a body over %d", buf.Len(), maxExactBody)
	}
	rec, err := NewReader(bytes.NewReader(buf.Bytes())).Next()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Peers, peers) {
		t.Errorf("decoded %d peers, want the %d written", len(rec.Peers), len(peers))
	}
	if _, err := NewReader(bytes.NewReader(buf.Bytes()[:buf.Len()-1])).Next(); !errors.Is(err, ErrMalformed) {
		t.Errorf("truncated large record: err = %v, want ErrMalformed", err)
	}
}
