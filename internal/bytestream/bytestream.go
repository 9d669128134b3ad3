// Package bytestream defines the asynchronous ordered byte-stream
// abstraction shared by the simulated transport stack: tcpsim.Conn
// produces one, tlssim.Conn wraps one and is one, and the HTTP/1.1 and
// HTTP/2 layers consume one. All methods are callback-oriented because
// the simulation is single-threaded under virtual time. Reassembly is
// the receive side both transports deliver through, one per TCP
// connection or QUIC stream, and Extents the store of supplied bytes
// both send from.
//
// Most bytes on the simulated wire are opaque: their writer does not
// specify their value and no reader inspects them (response bodies, AEAD
// tags, handshake padding). WriteOpaque queues them by count, so no layer
// materialises or copies them; only the supplied bytes a writer does
// specify — headers, framing, handshake fields — are ever stored. A
// reader that looks at an opaque byte sees arbitrary contents.
//
// On the wire, a stretch of opaque bytes with no supplied byte among
// them holds no memory either: it is an opaque run (Opaque), a slice of
// one shared, read-only zero array that belongs to no arena. Extents
// hands one out for every all-opaque payload, the transports park one
// beyond a gap by reference, and tlssim tops a split record up from one
// without a copy. Nobody writes to a run, appends to it or returns it to
// an arena; IsOpaque tells it apart from a buffer by identity.
package bytestream

// Stream is an ordered, reliable byte stream with asynchronous delivery.
//
// Implementations invoke the data callback with in-order payload chunks
// and the close callback exactly once when the stream ends (err == nil for
// a clean peer close, non-nil for an abort or transport failure).
type Stream interface {
	// Write queues p for transmission. The implementation copies p
	// before returning; the caller keeps ownership of the backing array
	// and may reuse or recycle it immediately (this is what lets the
	// HTTP layers frame into pooled buffers). It is WriteOpaque(p, 0).
	Write(p []byte)
	// WriteOpaque queues head, copied before return as Write copies,
	// followed by n opaque bytes: stream positions the peer receives
	// and counts but whose contents are arbitrary.
	WriteOpaque(head []byte, n int)
	// SetDataFunc registers the in-order delivery callback. The chunk
	// passed to the callback is only valid for the duration of the
	// call: implementations may recycle the backing array afterwards,
	// so callbacks that need the bytes later must copy them.
	SetDataFunc(fn func(p []byte))
	// SetCloseFunc registers the end-of-stream callback.
	SetCloseFunc(fn func(err error))
	// Close sends any queued data and then ends the stream cleanly.
	Close()
	// Abort tears the stream down immediately without notifying the
	// peer, releasing all timers. No callbacks fire after Abort.
	Abort()
}

// Throttled is optionally implemented by streams exposing send-buffer
// backpressure, letting producers (e.g. an HTTP/2 server pumping response
// bodies) avoid committing unbounded data ahead of later, smaller
// messages.
type Throttled interface {
	// UnsentBytes reports bytes accepted by Write but not yet
	// transmitted on the wire.
	UnsentBytes() int
	// SetDrainFunc registers fn, invoked whenever UnsentBytes falls to
	// or below threshold after transmission progress.
	SetDrainFunc(threshold int, fn func())
}
