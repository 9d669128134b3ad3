package tcpsim

import (
	"testing"

	rt "h3cdn/internal/recycletest"
)

// TestConnResetMatchesFresh: a recycled conn reads as a fresh one but for
// what reset keeps on purpose.
func TestConnResetMatchesFresh(t *testing.T) {
	rt.Check(t, allocConn, (*Conn).reset, rt.Rules[Conn]{Keep: map[string]rt.Keep{
		"rcv.chunks": rt.Emptied, // released at teardown
		"extents":    rt.Same,    // released at teardown
		"pktFn":      rt.Same,
		"onRTOFn":    rt.Same,
	}})
}
