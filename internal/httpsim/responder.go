package httpsim

import (
	"time"

	"h3cdn/internal/simnet"
)

// Responder answers one request. A server draws one from its Pools for
// every request it dispatches, bound to the connection record (or H3
// stream state) the request arrived on and to that record's incarnation:
// records are recycled as soon as their connection ends, so a responder
// whose record has retired since — its connection died while the
// handler waited — writes nothing, as a dead stream's writes do. A
// Responder goes back to its Pools once it has answered.
type Responder struct {
	to   responderTarget
	gen  uint32 // to's incarnation at dispatch
	id   uint32 // the H2 stream id
	resp Response
	pl   *Pools
	// fn answers for a responder made outside a server
	// (ServerContext.Responder); such a responder is never pooled.
	fn func(Response)

	respondFn func(Response) // Respond, bound once per struct
}

// responderTarget is what a pooled responder answers through.
type responderTarget interface {
	// incarnation is the record's reuse count, bumped no later than
	// the record's connection (or stream) can be handed to another.
	incarnation() uint32
	// respond writes resp on stream id.
	respond(id uint32, resp Response)
}

// getResponder hands out a responder for stream id of to's incarnation
// gen.
func (pl *Pools) getResponder(to responderTarget, gen, id uint32) *Responder {
	r, ok := pl.responders.Get()
	if !ok {
		r = newResponder()
	}
	r.to, r.gen, r.id, r.pl = to, gen, id, pl
	return r
}

// Respond answers now: it writes resp, unless the connection the request
// arrived on has been recycled since.
func (r *Responder) Respond(resp Response) {
	if r.fn != nil {
		r.fn(resp)
		return
	}
	if r.to.incarnation() == r.gen {
		r.to.respond(r.id, resp)
	}
	pl := r.pl
	r.reset()
	pl.responders.Put(r)
}

func newResponder() *Responder {
	r := &Responder{}
	r.respondFn = r.Respond
	return r
}

func (r *Responder) reset() { *r = Responder{respondFn: r.respondFn} }

// After answers with resp once wait has passed on s, or at once when wait
// is not positive. The responder itself is the event's argument, so the
// wait allocates nothing.
func (r *Responder) After(s *simnet.Scheduler, wait time.Duration, resp Response) {
	if wait <= 0 {
		r.Respond(resp)
		return
	}
	r.resp = resp
	s.AfterArg(wait, respondLater, r)
}

func respondLater(x any) {
	r := x.(*Responder)
	r.Respond(r.resp)
}
