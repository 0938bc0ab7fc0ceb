package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// FuzzRecordJSON holds appendRecord to encoding/json: the same bytes for
// every record it accepts, and an error, the same one, for every record it
// rejects.
func FuzzRecordJSON(f *testing.F) {
	epoch := time.Date(2023, 9, 19, 8, 0, 0, 0, time.UTC)
	add := func(t time.Time, offset int, s [7]string, round int, ms float64, ok bool) {
		f.Add(t.Unix(), int64(t.Nanosecond()), offset, s[0], s[1], s[2], s[3], s[4], s[5], s[6], round, ms, ok)
	}
	plain := [7]string{"ec2-ohio", "dns.google", "query", "doh", "google.com", "", "NOERROR"}
	add(epoch, 0, plain, 3, 41.203125, true)
	add(epoch.Add(1234567*time.Nanosecond), 0, [7]string{"home-chicago-1", "doh.ffmuc.net", "ping", "", "", "no-reply", ""}, 0, 0, false)
	add(epoch, 5*3600+1800, [7]string{"v", "r", "query", "dot", "amazon.com", "connect-failure", ""}, -7, 3000, false)
	add(epoch, -24*3600, plain, 1, 1, true)                                 // an offset RFC 3339 cannot write
	add(time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), 0, plain, 1, 1, true) // a five-digit year
	add(time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC), 0, plain, 1, 1, true)
	for _, ms := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		1e-6, 9.99e-7, 1e-7, 123456789e-15, 1e20, 1e21, -1.5e300, 5e-324, math.MaxFloat64} {
		add(epoch, 0, plain, 1, ms, true)
	}
	for _, s := range []string{"<b>&amp;</b>", `quote " and \ slash`, "tab\tnew\nline\x00\x7f",
		"ünïcødé", "\xff\xfe invalid", "line\u2028sep\u2029", "emoji 🛰"} {
		add(epoch, 0, [7]string{s, s, s, s, s, s, s}, 1, 1, true)
	}
	f.Fuzz(func(t *testing.T, sec, nsec int64, offset int, vantage, resolver, kind, protocol, domain, errClass, rcode string, round int, ms float64, ok bool) {
		r := Record{
			Time:    time.Unix(sec, nsec).In(time.FixedZone("z", offset)),
			Vantage: vantage, Resolver: resolver, Kind: Kind(kind), Protocol: protocol, Domain: domain,
			Round: round, Milliseconds: ms, OK: ok, Error: errClass, RCode: rcode,
		}
		want, wantErr := json.Marshal(r)
		got, err := appendRecord([]byte("prefix"), &r)
		if (err != nil) != (wantErr != nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("appendRecord(%+v): error %v, encoding/json %v", r, err, wantErr)
		}
		if err != nil {
			return
		}
		if want = append([]byte("prefix"), append(want, '\n')...); !bytes.Equal(got, want) {
			t.Fatalf("appendRecord(%+v)\n got %s\nwant %s", r, got, want)
		}
	})
}

func TestAppendRecordAllocs(t *testing.T) {
	r := Record{Time: time.Date(2023, 9, 19, 8, 0, 0, 0, time.UTC), Vantage: "ec2-ohio",
		Resolver: "dns.google", Kind: KindQuery, Protocol: "doh", Domain: "google.com",
		Round: 79, Milliseconds: 41.203125, OK: true, RCode: "NOERROR"}
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(100, func() { buf, _ = appendRecord(buf[:0], &r) }); n != 0 {
		t.Errorf("appendRecord: %v allocations, want 0", n)
	}
}
