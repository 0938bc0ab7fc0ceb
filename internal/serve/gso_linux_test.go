//go:build linux && !nobatch && (amd64 || arm64)

package serve_test

// gsoExpected tells tests whether Do53/UDP answers can leave in GSO
// trains on this build: udpbatch's sendmmsg path builds them.
const gsoExpected = true
