//go:build !linux || nobatch || (!amd64 && !arm64)

package udpbatch

import "net"

// newMmsgConn always declines on builds without the mmsg fast path, so
// NewConn serves every socket through the portable fallback.
func newMmsgConn(net.PacketConn) Conn { return nil }
