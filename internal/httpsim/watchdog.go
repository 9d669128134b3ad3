package httpsim

import (
	"errors"
	"time"

	"h3cdn/internal/simnet"
)

// ErrRequestTimeout reports a client connection that went silent with
// requests outstanding.
var ErrRequestTimeout = errors.New("httpsim: request timed out")

// requestTimeout is the client-side silence budget while requests are in
// flight: 2x the QUIC transport's probeTimeout floor (15s), so transport
// recovery always gets a full probe episode before the HTTP layer gives
// up. It exists for the gap transport timers cannot cover: a client with
// every sent byte acknowledged has nothing in flight, arms no PTO/RTO,
// and — if the server dies and its CONNECTION_CLOSE/RST is lost — would
// otherwise wait forever for response data that is never coming.
const requestTimeout = 30 * time.Second

// reqWatchdog tracks request-level liveness for one client connection.
// The owner calls touch with its in-flight count whenever that count
// changes or response data arrives: outstanding requests (re)arm the
// timer, idleness disarms it. An idle connection therefore never holds a
// live scheduler event (which would stretch virtual time past the end of
// a visit), and a stalled one fires exactly once after requestTimeout of
// silence.
type reqWatchdog struct {
	timer *simnet.Timer
}

func (w *reqWatchdog) init(sched *simnet.Scheduler, onFire func()) {
	w.timer = sched.NewTimer(onFire)
}

func (w *reqWatchdog) touch(inFlight int) {
	if w.timer == nil {
		return
	}
	if inFlight > 0 {
		w.timer.Reset(requestTimeout)
	} else {
		w.timer.Stop()
	}
}

func (w *reqWatchdog) release() {
	if w.timer != nil {
		w.timer.Release()
		w.timer = nil
	}
}
