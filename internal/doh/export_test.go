package doh

// The external test package drives this package's client half through
// transport, which this package's own tests cannot import; these give it
// the fixtures they share.

// Static is the test zone.
var Static = static

// TestDNS is the resolver scripted by query name that the HTTP/2 loop's
// tests serve.
type TestDNS = testDNS
