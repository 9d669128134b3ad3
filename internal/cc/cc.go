// Package cc is the congestion control both simulated transports share:
// one RFC 6298 round-trip estimator and one NewReno window in bytes, each
// read against a Profile, the numbers in which TCP and QUIC differ
// (DESIGN.md §4.28 lists them with their sources). Mechanisms only one
// transport has stay in it: TCP's fast-recovery inflation and its
// backed-off RTO, QUIC's PTO backoff and cwnd resumption.
package cc

import "time"

// Profile is one transport's congestion and timer numbers.
type Profile struct {
	// Segment is the payload size in bytes: congestion avoidance adds one
	// per window, and the halving floor is two.
	Segment float64
	// InitWindow is a new connection's window, MaxWindow the cap Clamp
	// applies (and the initial ssthresh), CollapseWindow the window
	// Collapse sets, all in bytes.
	InitWindow, MaxWindow, CollapseWindow float64
	// FirstTimeout is the retransmission timeout before any RTT sample;
	// TimeoutFloor and TimeoutCeiling clamp the one computed from samples.
	FirstTimeout, TimeoutFloor, TimeoutCeiling time.Duration
}

// RTT is an RFC 6298 smoothed round-trip estimator.
type RTT struct {
	SRTT, RTTVar time.Duration
	Sampled      bool
	p            *Profile
}

// NewRTT returns an estimator with no sample, timing out per p.
func NewRTT(p *Profile) RTT { return RTT{p: p} }

// Sample folds in one round-trip measurement. A non-positive one (an ACK
// in the instant of its send) counts as 1 µs; the first seeds SRTT with
// it and RTTVAR with half of it.
func (r *RTT) Sample(s time.Duration) {
	if s <= 0 {
		s = time.Microsecond
	}
	if !r.Sampled {
		r.Sampled = true
		r.SRTT, r.RTTVar = s, s/2
		return
	}
	d := max(r.SRTT-s, s-r.SRTT) // |SRTT - s|
	r.RTTVar = (3*r.RTTVar + d) / 4
	r.SRTT = (7*r.SRTT + s) / 8
}

// Timeout is the profile's first timeout before any sample, and
// SRTT + 4·RTTVAR clamped to the profile's floor and ceiling after.
func (r *RTT) Timeout() time.Duration {
	if !r.Sampled {
		return r.p.FirstTimeout
	}
	return min(max(r.SRTT+4*r.RTTVar, r.p.TimeoutFloor), r.p.TimeoutCeiling)
}

// Window is a NewReno congestion window in bytes. Its float updates are
// order-dependent, so a caller's order of calls is part of its results.
type Window struct {
	Cwnd, Ssthresh float64
	p              *Profile
}

// NewWindow returns p's initial window, with ssthresh at the cap.
func NewWindow(p *Profile) Window {
	return Window{Cwnd: p.InitWindow, Ssthresh: p.MaxWindow, p: p}
}

// OnAck grows the window for n newly acknowledged bytes: by n in slow
// start, by Segment·n/cwnd in congestion avoidance.
func (w *Window) OnAck(n float64) {
	if w.Cwnd < w.Ssthresh {
		w.Cwnd += n
		return
	}
	w.Cwnd += w.p.Segment * n / w.Cwnd
}

// Halve is the multiplicative decrease on a loss: ssthresh becomes half
// of from (the flight or window the loss was seen against), at least two
// segments, and the window drops to it.
func (w *Window) Halve(from float64) {
	w.Ssthresh = max(from/2, 2*w.p.Segment)
	w.Cwnd = w.Ssthresh
}

// Collapse drops the window to the profile's collapse window after
// timeouts, leaving ssthresh as it is.
func (w *Window) Collapse() { w.Cwnd = w.p.CollapseWindow }

// Clamp caps the window at the profile's max window.
func (w *Window) Clamp() { w.Cwnd = min(w.Cwnd, w.p.MaxWindow) }
