//go:build !linux || nobatch || (!amd64 && !arm64)

package udpbatch

// fastPathExpected tells tests whether *net.UDPConn should take the
// mmsg path on this build.
const fastPathExpected = false
