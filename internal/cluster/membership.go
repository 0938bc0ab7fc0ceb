package cluster

import (
	"fmt"
	"strings"
	"time"

	"encdns/internal/transport"
)

// PeerID is the cluster ID of the Do53 endpoint spec: the canonical
// endpoint string transport.ParseChain gives, which is also what a peer
// pool dials. So a peer spelled 127.0.0.1:5302 is the node that calls
// itself udp://127.0.0.1:5302, and every member (and dnsdig -ring) hashes
// the same ring. Peers forward over Do53: another scheme, or a
// dialer-chain prefix, is an error naming the spec.
func PeerID(spec string) (string, error) {
	ce, err := transport.ParseChain(spec)
	if err != nil {
		return "", fmt.Errorf("peer %q: %w", spec, err)
	}
	if ce.Scheme != transport.SchemeUDP || len(ce.Layers) > 0 {
		return "", fmt.Errorf("peer %q: cluster peers forward over Do53, so want udp://host[:port] with no dialer chain", spec)
	}
	return ce.String(), nil
}

// PeerIDs is PeerID over a comma-separated peer list; blank entries are
// skipped.
func PeerIDs(peers string) ([]string, error) {
	var ids []string
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		id, err := PeerID(p)
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// Peer health policy: the hysteresis that keeps one dropped forward from
// reshuffling the ring. A remote peer leaves the ring after downAfter
// consecutive failed exchanges (forwards and probes alike) and rejoins
// after upAfter consecutive successes with no failure in the last
// cleanFor, so a peer that fails now and then stays on the ring and a
// dead one that comes back stays off it until it has been clean for a
// while.
const (
	downAfter = 3
	upAfter   = 3
	cleanFor  = time.Minute
)

// peerHealth is all a node keeps of one remote peer's exchanges.
type peerHealth struct {
	on                   bool // the peer is on the ring
	consecFail, consecOK int
	lastFail             time.Time
}

// step records one exchange outcome at now and reports whether it moved
// the peer onto or off the ring.
func (h *peerHealth) step(ok bool, now time.Time) (flipped bool) {
	if ok {
		h.consecOK++
		h.consecFail = 0
	} else {
		h.consecFail++
		h.consecOK = 0
		h.lastFail = now
	}
	on := h.consecFail < downAfter
	if !h.on {
		on = h.consecOK >= upAfter && now.Sub(h.lastFail) >= cleanFor
	}
	flipped = on != h.on
	h.on = on
	return flipped
}
