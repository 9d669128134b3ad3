package core

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"h3cdn/internal/har"
	"h3cdn/internal/simnet"
	"h3cdn/internal/simnet/traces"
)

// BindFlags registers the flags shared by every command that runs
// campaigns: -seed, -pages, -probes, -har-retention, -loss, -workers and
// -retries, each binding the field it sets, and the path flags
// (-burst-loss, -burst-len, -jitter, -reorder, -reorder-delay, -outage,
// -link-trace, -trace-scale), from which the returned function builds
// Impairment and LinkTrace once fs.Parse is done. A -pages below 1 (0
// would select webgen's default), a malformed -har-retention or a
// malformed -outage fails fs.Parse; a path flag the builders would
// clamp or drop, or an unreadable -link-trace, fails the returned
// function. Validate judges the rest.
func (c *CampaignConfig) BindFlags(fs *flag.FlagSet) (buildPath func() error) {
	return c.bindFlags(fs, new(float64))
}

// BindFlags binds the campaign flags into Campaign
// (CampaignConfig.BindFlags), and -burst-len into BurstLen too:
// lossprofile's bursty arms read the burst length of a -burst-loss path.
func (in *ReportInputs) BindFlags(fs *flag.FlagSet) (buildPath func() error) {
	return in.Campaign.bindFlags(fs, &in.BurstLen)
}

func (c *CampaignConfig) bindFlags(fs *flag.FlagSet, burstLen *float64) func() error {
	fs.Uint64Var(&c.Seed, "seed", 2022, "campaign seed")
	c.CorpusConfig.NumPages = 325
	fs.Func("pages", "number of websites, an `int` of at least 1 (default 325)", func(s string) error {
		n, err := strconv.ParseInt(s, 0, strconv.IntSize)
		if err != nil || n < 1 {
			return errors.New("must be an integer of at least 1")
		}
		c.CorpusConfig.NumPages = int(n)
		return nil
	})
	fs.IntVar(&c.ProbesPerVantage, "probes", 1, "probes per vantage point")
	c.Retention = har.Retention{Kind: har.RetainAll}
	fs.Var(&c.Retention, "har-retention", "HAR retention `policy`: all, none, or sample:N (N PageLogs per shard); metrics always cover every page, but none keeps no per-page log, so its dataset file does not load and h3cdn-report refuses none for the rows that read those logs (default all)")
	fs.Float64Var(&c.LossRate, "loss", 0, "path loss rate (0 = default baseline, negative = lossless)")
	fs.IntVar(&c.Workers, "workers", 0, "concurrent shard workers (0 = GOMAXPROCS, 1 = one shard at a time)")
	fs.IntVar(&c.FetchRetries, "retries", 0, "browser re-fetch budget per resource after transport errors")

	p := pathFlags{burstLen: burstLen}
	fs.Float64Var(&p.burstLoss, "burst-loss", 0, "Gilbert–Elliott average loss rate (0 disables bursty loss)")
	fs.Float64Var(burstLen, "burst-len", 4, "Gilbert–Elliott mean burst length in packets")
	fs.DurationVar(&p.jitter, "jitter", 0, "uniform extra per-packet delay in [0, jitter)")
	fs.Float64Var(&p.reorder, "reorder", 0, "probability a delivered packet is held back")
	fs.DurationVar(&p.reorderDelay, "reorder-delay", 2*time.Millisecond, "hold-back duration for reordered packets")
	fs.Func("outage", "scheduled path outages, a comma-separated `list` of start-end pairs (e.g. 2s-4s,10s-11s)", func(s string) (err error) {
		p.outages, err = simnet.ParseOutages(s)
		return err
	})
	fs.StringVar(&p.linkTrace, "link-trace", "", "drive the download link from a capacity trace: a synthetic profile ("+strings.Join(traces.Names(), ", ")+") or a Mahimahi trace file")
	fs.Float64Var(&p.traceScale, "trace-scale", 1, "multiply the link trace's capacity samples by this factor")
	return func() error { return p.build(c) }
}

// pathFlags holds the path flags' values until fs.Parse is done.
type pathFlags struct {
	burstLoss    float64
	burstLen     *float64
	jitter       time.Duration
	reorder      float64
	reorderDelay time.Duration
	outages      []simnet.Outage
	linkTrace    string
	traceScale   float64
}

// build sets c's Impairment and LinkTrace from the path flags. It first
// refuses the values that would not reach Validate as given:
// simnet.GilbertElliott clamps the loss rate to 0.5 and the burst length
// to 1, a -reorder-delay is dropped without -reorder, and -trace-scale
// is no field at all. A sweep script with a sign bug should fail its
// first invocation loudly, not run a campaign under a silently changed
// knob. The Impairment stays nil when every knob is off, so campaigns
// keep the unimpaired fast path; any other value reaches Validate.
func (p *pathFlags) build(c *CampaignConfig) error {
	burstLen := *p.burstLen
	switch {
	case !(p.burstLoss >= 0 && p.burstLoss <= 0.5):
		return fmt.Errorf("-burst-loss %v: must be a loss rate in [0, 0.5]", p.burstLoss)
	case !(burstLen >= 1) || math.IsInf(burstLen, 1):
		return fmt.Errorf("-burst-len %v: must be a finite burst length of at least 1 packet", burstLen)
	case p.reorderDelay < 0:
		return fmt.Errorf("-reorder-delay %v: must be a non-negative duration", p.reorderDelay)
	case !(p.traceScale > 0) || math.IsInf(p.traceScale, 0):
		return fmt.Errorf("-trace-scale %v: must be a positive finite factor", p.traceScale)
	}
	c.Impairment = nil
	if p.burstLoss != 0 || p.jitter != 0 || p.reorder != 0 || len(p.outages) > 0 {
		im := simnet.GilbertElliott(p.burstLoss, burstLen)
		im.JitterMax = p.jitter
		if p.reorder != 0 {
			im.ReorderRate = p.reorder
			im.ReorderDelay = p.reorderDelay
		}
		im.Outages = p.outages
		c.Impairment = &im
	}
	var err error
	c.LinkTrace, err = traces.Load(p.linkTrace, p.traceScale)
	return err
}
