package serve

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"ipv4market/internal/market"
	"ipv4market/internal/netblock"
	"ipv4market/internal/registry"
	"ipv4market/internal/simulation"
)

// checkTransfersBody asserts that transfersBody and the reflection
// oracle, encodeJSON(viewTransfers(log)), agree on log: the same bytes,
// or both an error with the same message.
func checkTransfersBody(t testing.TB, name string, log []registry.Transfer) {
	t.Helper()
	got, gotErr := transfersBody(market.Transfers(log))
	want, wantErr := encodeJSON(viewTransfers(log))
	switch {
	case gotErr != nil || wantErr != nil:
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: transfersBody error %v, json.Marshal error %v", name, gotErr, wantErr)
		}
	case !bytes.Equal(got, want):
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Errorf("%s: transfersBody differs from the oracle at byte %d of %d/%d:\n  got:  %q\n  want: %q",
			name, i, len(got), len(want), got[max(i-40, 0):min(i+40, len(got))], want[max(i-40, 0):min(i+40, len(want))])
	}
}

// oddOrgs are organization IDs and transfer types that exercise every
// escape encoding/json makes: quotes, backslashes, '<', '>' and '&',
// control bytes, non-ASCII text, invalid UTF-8 and U+2028/U+2029.
var oddOrgs = []string{
	"", "plain", `say "hi"`, `back\slash`, "<script>&amp;</script>",
	"nul\x00 soh\x01 us\x1f del\x7f", "\b\f\n\r\t", "Zürich – 東京 🌐",
	"bad \xff\xfe bytes", "cut \xe2\x82", "sep\u2028para\u2029end",
}

// oddLog is a log carrying oddOrgs as parties and types, price in every
// transfer, unknown RIRs, dates in other locations and outside the
// four-digit years, and a zero date.
func oddLog(price float64) []registry.Transfer {
	var log []registry.Transfer
	dates := []time.Time{
		time.Date(2014, 2, 3, 0, 0, 0, 0, time.UTC),
		time.Date(2019, 12, 31, 23, 30, 0, 0, time.FixedZone("east", 5*3600)),
		time.Date(12345, 1, 1, 0, 0, 0, 0, time.UTC),
		{},
	}
	for i, s := range oddOrgs {
		log = append(log, registry.Transfer{
			Prefix: netblock.MustPrefix(netblock.Addr(10<<24+i<<16), 16+i%9),
			From:   registry.OrgID(s), To: registry.OrgID("to " + s),
			FromRIR: registry.RIR(i % 7), ToRIR: registry.RIR((i + 1) % 6),
			Type: registry.TransferType(s), Date: dates[i%len(dates)], PricePerAddr: price,
		})
	}
	return log
}

// TestTransfersBodyMatchesMarshal holds the /v1/transfers append
// encoder to the reflection-marshalled document it replaced, byte for
// byte: on the test world's and DefaultConfig's logs, on the empty log
// (whose by_year is null but whose transfers are []), on transfers in
// year 0 and before, on strings needing every escape, and on prices at
// and around the float format's exponent cutoffs. Prices of 0 and -0
// are omitted; NaN and ±Inf must fail as json.Marshal fails.
func TestTransfersBodyMatchesMarshal(t *testing.T) {
	cfgs := map[string]simulation.Config{"test": testConfig()}
	if !testing.Short() {
		cfgs["default"] = simulation.DefaultConfig()
	}
	for name, cfg := range cfgs {
		w, err := simulation.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkTransfersBody(t, name, w.Registry.Transfers())
	}
	checkTransfersBody(t, "empty", nil)
	// A transfer in year 0 restarts the oracle's year range (0 meant
	// unset) or ends it at 0, which lists no years at all.
	for _, years := range [][]int{{0}, {0, 2014}, {2014, 0}, {2014, 0, 2013}, {-5, 0, 2014}, {-5, 2014}, {-3, -7}} {
		var log []registry.Transfer
		for i, y := range years {
			log = append(log, registry.Transfer{
				Prefix: netblock.MustPrefix(netblock.Addr(10<<24+i<<16), 16), From: "a", To: "b",
				Type: registry.TypeMarket, Date: time.Date(y, 6, 1, 0, 0, 0, 0, time.UTC),
			})
		}
		checkTransfersBody(t, fmt.Sprintf("years %v", years), log)
	}
	for _, price := range []float64{
		0, math.Copysign(0, -1), 1e-7, 1e-6, 9.99e-7, 1e20, 1e21, 0.1, -1.5, 25, 123456789.125,
		5e-324, math.MaxFloat64, -1e-9, math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		log := oddLog(price)
		checkTransfersBody(t, fmt.Sprintf("price %v", price), log)
		if _, err := transfersBody(market.Transfers(log)); (err != nil) != (math.IsNaN(price) || math.IsInf(price, 0)) {
			t.Errorf("price %v: transfersBody error %v", price, err)
		}
	}
}

// FuzzTransfersBody is TestTransfersBodyMatchesMarshal over arbitrary
// parties, types, prices, RIRs, prefixes and dates.
func FuzzTransfersBody(f *testing.F) {
	for i, s := range oddOrgs {
		f.Add(s, oddOrgs[len(oddOrgs)-1-i], 0.1*float64(i), uint8(i), uint32(i)<<20, int64(i*100000))
	}
	f.Add("a", "b", math.NaN(), uint8(1), uint32(0), int64(0))
	f.Add("a", "b", math.Copysign(0, -1), uint8(200), uint32(1<<31), int64(-1e9))
	base := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	year0 := time.Date(0, 3, 1, 0, 0, 0, 0, time.UTC).Unix() - base.Unix()
	f.Add("a", "b", 1.0, uint8(2), uint32(7), year0)
	f.Add("a", "b", 1.0, uint8(2), uint32(7), year0-400*365*86400)
	f.Fuzz(func(t *testing.T, from, typ string, price float64, rir uint8, addr uint32, offset int64) {
		// Offsets of up to 2^37 s reach about 4,350 years either side of
		// base, year 0 and negative years included.
		date := time.Unix(base.Unix()+offset%(1<<37), 0).UTC()
		log := []registry.Transfer{
			{
				Prefix: netblock.MustPrefix(netblock.Addr(addr)&^0xff, 24), From: registry.OrgID(from), To: registry.OrgID(typ),
				FromRIR: registry.RIR(rir), ToRIR: registry.RIR(rir / 2), Type: registry.TransferType(typ),
				Date: date, PricePerAddr: price,
			},
			{
				Prefix: netblock.MustPrefix(netblock.Addr(addr)&^0xffff, 16), From: registry.OrgID(typ), To: registry.OrgID(from),
				FromRIR: registry.ARIN, ToRIR: registry.ARIN, Type: registry.TypeMerger, Date: base,
			},
		}
		if offset&1 == 1 { // the fuzzed date second, after base
			log[0], log[1] = log[1], log[0]
		}
		checkTransfersBody(t, "fuzz", log)
	})
}
