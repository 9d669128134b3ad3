package cc

import (
	"encoding/binary"
	"math"
	"testing"
	"time"
)

const ms = time.Millisecond

// testProfile has round numbers, so every expected value below is exact.
var testProfile = Profile{
	Segment:        1000,
	InitWindow:     4000,
	MaxWindow:      16000,
	CollapseWindow: 1000,
	FirstTimeout:   time.Second,
	TimeoutFloor:   200 * ms,
	TimeoutCeiling: 60 * time.Second,
}

// TestRTTSequence checks the estimator against RFC 6298 §2 worked by
// hand: SRTT = R and RTTVAR = R/2 on the first sample, then
// RTTVAR = 3/4·RTTVAR + 1/4·|SRTT − R| and SRTT = 7/8·SRTT + 1/8·R, and
// RTO = SRTT + 4·RTTVAR within the floor and ceiling.
func TestRTTSequence(t *testing.T) {
	type step struct {
		sample, srtt, rttvar, timeout time.Duration
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"seed then smooth", []step{
			{100 * ms, 100 * ms, 50 * ms, 300 * ms},
			// |100 − 200| = 100: RTTVAR (150 + 100)/4, SRTT (700 + 200)/8.
			{200 * ms, 112500 * time.Microsecond, 62500 * time.Microsecond, 362500 * time.Microsecond},
			// A zero sample counts as 1 µs: |112.5 ms − 1 µs| = 112.499 ms,
			// RTTVAR (187.5 + 112.499)/4 ms, SRTT (787.5 ms + 1 µs)/8.
			{0, 98437625, 74999750, 398436625},
		}},
		{"floor", []step{
			{time.Millisecond, time.Millisecond, 500 * time.Microsecond, 200 * ms}, // 3 ms, floored
			{-time.Second, 875125, 624750, 200 * ms},                               // −1 s counts as 1 µs
		}},
		{"ceiling", []step{
			{30 * time.Second, 30 * time.Second, 15 * time.Second, 60 * time.Second}, // 90 s, capped
			{10 * time.Second, 27500 * ms, 16250 * ms, 60 * time.Second},             // 92.5 s, capped
			{27500 * ms, 27500 * ms, 12187500 * time.Microsecond, 60 * time.Second},  // 76.25 s, capped
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRTT(&testProfile)
			if got := r.Timeout(); got != time.Second {
				t.Fatalf("timeout before any sample = %v, want the first timeout 1s", got)
			}
			for i, s := range tc.steps {
				r.Sample(s.sample)
				if r.SRTT != s.srtt || r.RTTVar != s.rttvar || r.Timeout() != s.timeout {
					t.Fatalf("after sample %d (%v): SRTT %v RTTVAR %v timeout %v, want %v %v %v",
						i, s.sample, r.SRTT, r.RTTVar, r.Timeout(), s.srtt, s.rttvar, s.timeout)
				}
			}
		})
	}
}

// TestWindow walks the window through slow start, the cap, congestion
// avoidance, halving with its two-segment floor, and a collapse.
func TestWindow(t *testing.T) {
	w := NewWindow(&testProfile)
	if w.Cwnd != 4000 || w.Ssthresh != 16000 {
		t.Fatalf("new window %v / ssthresh %v, want 4000 / 16000", w.Cwnd, w.Ssthresh)
	}
	for i, tc := range []struct {
		name           string
		op             func()
		cwnd, ssthresh float64
	}{
		{"slow start adds the bytes", func() { w.OnAck(1000) }, 5000, 16000},
		{"slow start may overshoot", func() { w.OnAck(20000) }, 25000, 16000},
		{"clamp to max", w.Clamp, 16000, 16000},
		{"avoidance at ssthresh", func() { w.OnAck(1000) }, 16062.5, 16000}, // + 1000·1000/16000
		{"clamp again", w.Clamp, 16000, 16000},
		{"halve", func() { w.Halve(10000) }, 5000, 5000},
		{"avoidance after halving", func() { w.OnAck(1000) }, 5200, 5000}, // + 1000·1000/5000
		{"clamp below max is a no-op", w.Clamp, 5200, 5000},
		{"halving floor", func() { w.Halve(1500) }, 2000, 2000},
		{"collapse keeps ssthresh", w.Collapse, 1000, 2000},
		{"slow start below ssthresh", func() { w.OnAck(1000) }, 2000, 2000},
		{"avoidance from ssthresh", func() { w.OnAck(1000) }, 2500, 2000}, // + 1000·1000/2000
	} {
		tc.op()
		if w.Cwnd != tc.cwnd || w.Ssthresh != tc.ssthresh {
			t.Fatalf("step %d (%s): cwnd %v ssthresh %v, want %v %v", i, tc.name, w.Cwnd, w.Ssthresh, tc.cwnd, tc.ssthresh)
		}
	}
}

// FuzzWindow applies random sequences of window and estimator operations
// and checks what every transport relies on: the window stays finite and
// positive, Clamp caps it, Halve floors ssthresh at two segments, and a
// sampled estimator's timeout stays within the floor and ceiling.
func FuzzWindow(f *testing.F) {
	f.Add([]byte{0, 10, 0, 1, 0, 200, 3, 0, 2, 0, 4, 50})
	f.Add([]byte{1, 255, 255, 2, 0, 0, 0, 0, 3, 0, 4, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, prog []byte) {
		p := testProfile
		w, r := NewWindow(&p), NewRTT(&p)
		for len(prog) >= 3 {
			op, arg := prog[0]%5, binary.BigEndian.Uint16(prog[1:3])
			prog = prog[3:]
			switch op {
			case 0:
				w.OnAck(float64(arg) + 1)
			case 1:
				w.Halve(float64(arg) * 100)
				if w.Ssthresh < 2*p.Segment {
					t.Fatalf("ssthresh %v below two segments after Halve(%v)", w.Ssthresh, float64(arg)*100)
				}
			case 2:
				w.Collapse()
			case 3:
				w.Clamp()
				if w.Cwnd > p.MaxWindow {
					t.Fatalf("cwnd %v above the max window after Clamp", w.Cwnd)
				}
			case 4:
				r.Sample(time.Duration(arg)*ms - 1000*ms)
				if to := r.Timeout(); to < p.TimeoutFloor || to > p.TimeoutCeiling {
					t.Fatalf("timeout %v outside [%v, %v]", to, p.TimeoutFloor, p.TimeoutCeiling)
				}
			}
			if !(w.Cwnd > 0) || math.IsInf(w.Cwnd, 0) {
				t.Fatalf("cwnd %v not finite and positive", w.Cwnd)
			}
		}
	})
}
