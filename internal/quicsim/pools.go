package quicsim

import "h3cdn/internal/bufpool"

// Pools is a per-universe arena for the transport's per-packet and
// per-stream records: packets, frames arrays, sentPacket and ackFrame
// records, streamFrame structs, and Stream objects. One simulation
// universe shares a single Pools across all of its endpoints; every
// endpoint runs on the universe's one scheduler goroutine, so reuse
// needs no locking. Free lists persist across visits — a warm shard
// replays each visit out of the same allocation footprint. The zero
// value is ready to use.
//
// Recycling discipline (see DESIGN.md §4.17): packets recycle via
// simnet's Release after delivery or drop; frames arrays, ackFrames and
// sentPacket records recycle on definitive ACK retirement only;
// streamFrame structs are reference-counted (one hold per in-flight
// record) because a PTO probe may copy a frame pointer into a second
// record; Streams retire at connection teardown but are quarantined on
// a retired list until the visit-boundary Rewind, because scheduled
// application callbacks may still touch them until the scheduler drains;
// a stream's send arrays go back when the stream is fully acknowledged,
// and only what a torn-down connection's streams still held waits for
// that Rewind too.
type Pools struct {
	packets bufpool.FreeList[*packet]
	ackPkts bufpool.FreeList[*packet]
	frames  bufpool.FreeList[[]frame]
	sents   bufpool.FreeList[*sentPacket]
	acks    bufpool.FreeList[*ackFrame]
	sframes bufpool.FreeList[*streamFrame]
	streams bufpool.FreeList[*Stream]
	retired []*Stream

	// pends recycles stream send arrays: a Stream takes one on its first
	// Write, keeps those it outgrows (in-flight frames alias zero-copy
	// windows of them) and Puts them all when it is fully acknowledged.
	// It is not the wire arena and carries no per-visit balance rule.
	pends bufpool.Arena
}

func (pl *Pools) newStreamFrame(id, off uint64, data []byte) *streamFrame {
	sf, ok := pl.sframes.Get()
	if !ok {
		sf = &streamFrame{}
	}
	*sf = streamFrame{id: id, off: off, data: data, holds: 1}
	return sf
}

// releaseHold drops one record's hold on sf and recycles the struct once
// no in-flight record references it. The data alias is dropped at
// recycle time; the bytes themselves belong to the sending stream.
func (pl *Pools) releaseHold(sf *streamFrame) {
	sf.holds--
	if sf.holds > 0 {
		return
	}
	sf.data = nil
	pl.sframes.Put(sf)
}

// newStream returns a reset Stream bound to c. The gap buffer's and the
// outgrown list's allocations are retained across reuses; send arrays
// are not.
func (pl *Pools) newStream(c *Conn, id uint64) *Stream {
	s, ok := pl.streams.Get()
	if !ok {
		s = &Stream{}
	}
	s.conn = c
	s.id = id
	return s
}

// Rewind promotes the streams of torn-down connections to the free
// list. They sit on retired until now because pending application
// callbacks (e.g. a server response scheduled before the close) may
// still call Write/CloseWrite on them; those are no-ops on the closed
// conn only while the struct stays intact. Callers must only invoke it
// at a visit boundary: the scheduler has drained, so no wire copy
// aliases the send arrays teardown retired and no callback can reach a
// retired stream.
func (pl *Pools) Rewind() {
	for i, s := range pl.retired {
		chunks := s.chunks
		chunks.Reset()
		*s = Stream{outgrown: s.outgrown, chunks: chunks}
		pl.streams.Put(s)
		pl.retired[i] = nil
	}
	pl.retired = pl.retired[:0]
	pl.pends.Rewind()
}
