package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"h3cdn/internal/bufpool"
	"h3cdn/internal/har"
	"h3cdn/internal/seqrand"
	"h3cdn/internal/sketch"
	"h3cdn/internal/trace"
	"h3cdn/internal/traffic"
)

// visitSink is the per-shard consumer of finished visits, shared by both
// visit sources: it folds each visit into the shard's metric accumulator,
// applies the retention policy to its PageLog, attaches the visit's phase
// attribution, buffers its qlog, and keeps the shard's counters (plus,
// for the population source, its traffic report). A sink belongs to one
// shard and runs on that shard's goroutine only.
type visitSink struct {
	sinkState
	probe     string
	retention har.RetentionKind
	key       sketch.Key
	phases    []trace.PhaseBreakdown

	// logs holds the PageLogs fold did not keep, for the next visit
	// (newLog): a RetainNone shard fills as many logs as it has visits
	// loading at once, and grows their entries once.
	logs bufpool.FreeList[*har.PageLog]

	// Tracing (nil tracer on untraced campaigns). The tracer's callback
	// fires inside every RunVisit, before the source hands that visit's
	// log to fold, so pending always belongs to the visit being folded.
	tracer      *trace.Tracer
	tracePhases bool
	pending     trace.PhaseBreakdown
	qlog        *trace.QlogWriter
	qbuf        bytes.Buffer
	qpath       string
}

// sinkState is the part of a sink a traffic checkpoint records (as JSON),
// which is why a population campaign resumes under any retention policy:
// Pages holds every log (RetainAll), Reservoir a sample of them
// (RetainSample), and both stay empty under RetainNone.
type sinkState struct {
	Stats     CampaignStats                    `json:"stats"`
	Acc       *sketch.MetricAccumulator        `json:"metrics"`
	Pages     []har.PageLog                    `json:"pages,omitempty"`
	Reservoir *sketch.Reservoir[retainedVisit] `json:"reservoir,omitempty"`
	Report    *traffic.Report                  `json:"report,omitempty"` // population source only
}

// retainedVisit pairs a retained PageLog with its phase breakdown so a
// sampled shard keeps Pages and Phases aligned.
type retainedVisit struct {
	Page  har.PageLog          `json:"page"`
	Phase trace.PhaseBreakdown `json:"phase"`
}

func newVisitSink(cfg CampaignConfig, job shardJob) *visitSink {
	s := &visitSink{
		sinkState:   sinkState{Acc: sketch.NewAccumulator(sketch.DefaultAlpha)},
		probe:       job.point.Name + "/" + strconv.Itoa(job.probe),
		retention:   cfg.Retention.Kind,
		key:         sketch.Key{Mode: job.mode.String(), Vantage: job.point.Name},
		tracePhases: cfg.TracePhases,
	}
	if s.retention == har.RetainSample {
		// The reservoir draws from a private seqrand stream off the shard
		// seed, so which pages are retained is a pure function of the
		// shard — independent of worker count, completion order, and
		// every other consumer of shard randomness.
		seed := seqrand.New(shardSeed(cfg, job)).StreamSeed("retain")
		s.Reservoir = sketch.NewReservoir[retainedVisit](cfg.Retention.Sample, seed)
	}
	if cfg.QlogDir != "" {
		name := job.slug() + ".qlog"
		s.qpath = filepath.Join(cfg.QlogDir, name)
		s.qlog = trace.NewQlogWriter(&s.qbuf, name)
	}
	if cfg.QlogDir != "" || cfg.TracePhases {
		s.tracer = trace.New(0, s.traced)
	}
	return s
}

// traced is the tracer's per-visit callback.
func (s *visitSink) traced(v *trace.VisitRecord) {
	if s.qlog != nil {
		s.qlog.WriteVisit(v)
	}
	if s.tracePhases {
		s.pending = trace.AttributeVisit(v)
	}
}

// phasesOf returns the phase breakdown of the visit about to be folded,
// or nil on campaigns without TracePhases.
func (s *visitSink) phasesOf() *trace.PhaseBreakdown {
	if !s.tracePhases {
		return nil
	}
	return &s.pending
}

// newLog returns a log for a visit to fill (browser.Visit resets it):
// one fold did not keep, or a new one.
func (s *visitSink) newLog() *har.PageLog {
	if log, ok := s.logs.Get(); ok {
		return log
	}
	return &har.PageLog{}
}

// fold consumes one finished visit: v (built by the source, which knows
// what its campaign kind measures) goes into the accumulator, and the
// retention policy decides whether the PageLog survives. A log it does
// not keep goes back for newLog, so the source must not touch log after
// fold. A kept log — every one under RetainAll, and under RetainSample
// every one offered, since the reservoir may hold it — shares its
// entries with the dataset and is never reused.
func (s *visitSink) fold(log *har.PageLog, v sketch.VisitSample) {
	log.Probe = s.probe
	s.Acc.Group(s.key).Fold(v)
	s.Stats.PagesFolded++
	switch s.retention {
	case har.RetainAll:
		s.Pages = append(s.Pages, *log)
		if s.tracePhases {
			s.phases = append(s.phases, s.pending)
		}
	case har.RetainSample:
		s.Reservoir.Offer(retainedVisit{Page: *log, Phase: s.pending})
	case har.RetainNone:
		s.logs.Put(log)
	}
}

// harvest adds a universe's execution counters — scheduler events,
// recovery activity, network drops — to the shard's stats. Call it once
// per universe, when the source is done with it.
func (s *visitSink) harvest(u *Universe) {
	ns := u.Net.Stats()
	s.Stats.Events += u.Events()
	s.Stats.Recovery.Add(u.RecoveryStats())
	s.Stats.LossDrops += ns.LossDrops
	s.Stats.BurstDrops += ns.BurstDrops
	s.Stats.OutageDrops += ns.OutageDrops
	s.Stats.QueueDrops += ns.QueueDrops
	s.Stats.Reordered += ns.Reordered
}

// result closes the shard: it writes the buffered qlog and hands the
// stitcher everything kept, a sampled shard's pages in offer order.
func (s *visitSink) result() shardResult {
	if s.qlog != nil {
		err := s.qlog.Err()
		if err == nil {
			err = os.WriteFile(s.qpath, s.qbuf.Bytes(), 0o644)
		}
		if err != nil {
			return shardResult{err: fmt.Errorf("qlog: %w", err)}
		}
	}
	pages := s.Pages
	if s.Reservoir != nil {
		for _, it := range s.Reservoir.Items() {
			pages = append(pages, it.Page)
			if s.tracePhases {
				s.phases = append(s.phases, it.Phase)
			}
		}
	}
	s.Stats.PagesRetained = int64(len(pages))
	if s.Report != nil {
		s.Stats.Traffic = s.Report.Counters
	}
	return shardResult{pages: pages, phases: s.phases, stats: s.Stats, acc: s.Acc, traffic: s.Report}
}
