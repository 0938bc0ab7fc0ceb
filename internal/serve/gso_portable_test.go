//go:build !linux || nobatch || (!amd64 && !arm64)

package serve_test

// gsoExpected tells tests whether Do53/UDP answers can leave in GSO
// trains on this build: the portable path writes one datagram a call.
const gsoExpected = false
