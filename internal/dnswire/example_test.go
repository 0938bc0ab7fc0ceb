package dnswire_test

import (
	"fmt"
	"net/netip"

	"encdns/internal/dnswire"
)

// ExampleNewQuery shows the round trip every transport shares: build a
// query, pack it to wire format, parse it back.
func ExampleNewQuery() {
	q := dnswire.NewQuery(42, "google.com", dnswire.TypeA)
	wire, _ := q.Pack()
	parsed, _ := dnswire.Unpack(wire)
	fmt.Println(parsed.Question0())
	// Output: google.com. IN A
}

// ExampleMessage_Reply builds an answer the way a resolver does.
func ExampleMessage_Reply() {
	q := dnswire.NewQuery(7, "example.com", dnswire.TypeA)
	r := q.Reply()
	r.Header.RA = true
	r.Answers = append(r.Answers, dnswire.Record{
		Name: "example.com", Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 300,
		Data: &dnswire.A{Addr: netip.MustParseAddr("93.184.216.34")},
	})
	fmt.Println(r.Answers[0])
	// Output: example.com. 300 IN A 93.184.216.34
}

// ExampleCanonicalName shows the name canonicalisation every lookup uses.
func ExampleCanonicalName() {
	fmt.Println(dnswire.CanonicalName("WWW.Example.COM"))
	fmt.Println(dnswire.ParentName("www.example.com."))
	fmt.Println(dnswire.IsSubdomain("www.example.com", "example.com"))
	// Output:
	// www.example.com.
	// example.com.
	// true
}
