package httpsim

import (
	"testing"

	rt "h3cdn/internal/recycletest"
)

// clientKeeps is what reset keeps of the request lifecycle every client
// record embeds.
var clientKeeps = map[string]rt.Keep{
	"client.w":         rt.Same, // the record itself
	"client.queued":    rt.Emptied,
	"client.active":    rt.Emptied,
	"client.onDataFn":  rt.Same,
	"client.onCloseFn": rt.Same,
	"client.fireFn":    rt.Same,
}

// tlsWireKeeps is what reset keeps of an H1 or H2 client's transport.
var tlsWireKeeps = map[string]rt.Keep{
	"tlsWire.c":             rt.Same, // the record's own lifecycle
	"tlsWire.onTCPFn":       rt.Same,
	"tlsWire.onTCPCloseFn":  rt.Same,
	"tlsWire.onHandshakeFn": rt.Same,
}

func keeps(sets ...map[string]rt.Keep) map[string]rt.Keep {
	out := map[string]rt.Keep{}
	for _, s := range sets {
		for k, v := range s {
			out[k] = v
		}
	}
	return out
}

// TestResetMatchesFresh: every recycled HTTP record reads as a fresh one
// after reset but for what reset keeps on purpose — array capacity,
// callbacks bound once per struct and the incarnation count.
func TestResetMatchesFresh(t *testing.T) {
	parserKeeps := map[string]rt.Keep{"parser.acc": rt.Emptied, "parser.blocks": rt.Emptied}
	t.Run("h1Client", func(t *testing.T) {
		rt.Check(t, newH1Client, (*h1Client).reset, rt.Rules[h1Client]{
			Keep: keeps(clientKeeps, tlsWireKeeps, map[string]rt.Keep{"heads.acc": rt.Emptied}),
		})
	})
	t.Run("h2Client", func(t *testing.T) {
		rt.Check(t, newH2Client, (*h2Client).reset, rt.Rules[h2Client]{
			Keep: keeps(clientKeeps, tlsWireKeeps, parserKeeps),
		})
	})
	t.Run("h3Client", func(t *testing.T) {
		rt.Check(t, newH3Client, (*h3Client).reset, rt.Rules[h3Client]{
			Keep: keeps(clientKeeps, map[string]rt.Keep{"estFn": rt.Same}),
		})
	})
	t.Run("serverConn", func(t *testing.T) {
		rt.Check(t, newServerConn, (*serverConn).reset, rt.Rules[serverConn]{
			Keep: keeps(parserKeeps, map[string]rt.Keep{
				"gen":         rt.Same, // retire bumps it
				"heads.acc":   rt.Emptied,
				"active":      rt.Emptied,
				"handshakeFn": rt.Same,
				"dataFn":      rt.Same,
				"closeFn":     rt.Same,
				"pumpFn":      rt.Same,
			}),
			// reset hands unfinished bodies back to the server's pools.
			Prep: func(c *serverConn) { c.srv = &Server{cfg: ServerConfig{Pools: &Pools{}}} },
		})
	})
	t.Run("h3Server", func(t *testing.T) {
		rt.Check(t, allocH3Server, (*h3Server).reset, rt.Rules[h3Server]{
			Keep: map[string]rt.Keep{"streamFn": rt.Same, "closeFn": rt.Same},
		})
	})
	t.Run("h3SrvStream", func(t *testing.T) {
		rt.Check(t, newH3SrvStream, (*h3SrvStream).reset, rt.Rules[h3SrvStream]{
			Keep: keeps(parserKeeps, map[string]rt.Keep{"gen": rt.Bumped, "dataFn": rt.Same}),
		})
	})
	t.Run("request", func(t *testing.T) {
		rt.Check(t, func() *request { return &request{} }, (*request).reset, rt.Rules[request]{
			Keep: keeps(parserKeeps, map[string]rt.Keep{"dataFn": rt.Same}),
		})
	})
	t.Run("Responder", func(t *testing.T) {
		rt.Check(t, newResponder, (*Responder).reset, rt.Rules[Responder]{
			Keep:    map[string]rt.Keep{"respondFn": rt.Same},
			Samples: []any{newServerConn()},
		})
	})
}
