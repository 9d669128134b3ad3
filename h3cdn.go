// Package h3cdn reproduces "Dissecting the Applicability of HTTP/3 in
// Content Delivery Networks" (Zhou et al., ICDCS 2024) as a self-contained
// simulation study: a deterministic discrete-event network, miniature TCP,
// TLS and QUIC stacks, HTTP/1.1 / HTTP/2 / HTTP/3 layers, a CDN provider
// and edge-cache model, a synthetic Alexa-like webpage corpus, a
// Chrome-like page loader, and the paper's full measurement pipeline —
// every table and figure regenerable offline.
//
// The package is a facade over the internal packages. Typical use:
//
//	ds, err := h3cdn.Run(h3cdn.CampaignConfig{Seed: 1, CorpusConfig: h3cdn.CorpusConfig{NumPages: 64}})
//	fmt.Print(h3cdn.RenderTable2(h3cdn.ComputeTable2(ds)))
//
// or, for a single simulated page load, see examples/quickstart.
package h3cdn

import (
	"h3cdn/internal/browser"
	"h3cdn/internal/core"
	"h3cdn/internal/har"
	"h3cdn/internal/vantage"
	"h3cdn/internal/webgen"
)

// Re-exported configuration and result types.
type (
	// CampaignConfig configures a full measurement campaign (§III-B).
	CampaignConfig = core.CampaignConfig
	// CorpusConfig tunes synthetic webpage generation.
	CorpusConfig = webgen.Config
	// Corpus is the generated website population.
	Corpus = webgen.Corpus
	// Page is one website's landing page.
	Page = webgen.Page
	// Dataset is a campaign's output: per-mode HAR logs.
	Dataset = core.Dataset
	// UniverseConfig assembles one probe's simulated Internet.
	UniverseConfig = core.UniverseConfig
	// Universe is one probe's simulated Internet.
	Universe = core.Universe
	// Topology is the build-once, share-everywhere slice of universe
	// construction (content catalog, provider and resolver tables).
	Topology = core.Topology
	// BrowserConfig tunes the page loader.
	BrowserConfig = browser.Config
	// Browser is the simulated page loader.
	Browser = browser.Browser
	// PageLog is one visit's HAR record.
	PageLog = har.PageLog
	// Entry is one resource load's HAR record.
	Entry = har.Entry
	// HARLog is a collection of page visits.
	HARLog = har.Log
	// Retention selects which per-page HAR logs a campaign keeps in
	// memory; streamed metric sketches cover every page regardless.
	Retention = har.Retention
	// SiteMetrics aggregates one site's measurements across probes.
	SiteMetrics = core.SiteMetrics
	// VantagePoint is one probe site.
	VantagePoint = vantage.Point
	// Mode selects the browsing protocol policy.
	Mode = browser.Mode

	// Experiment result types, one per paper artifact.
	Table1Row   = core.Table1Row
	Table2      = core.Table2
	Fig2Row     = core.Fig2Row
	Fig3        = core.Fig3
	Fig4        = core.Fig4
	Fig5Series  = core.Fig5Series
	Fig6aGroup  = core.Fig6aGroup
	Fig6b       = core.Fig6b
	Fig7Group   = core.Fig7Group
	Fig7cBucket = core.Fig7cBucket
	Fig8Point   = core.Fig8Point
	Table3      = core.Table3
	Fig9Series  = core.Fig9Series
	ModeStats   = core.ModeStats
)

// Browsing modes.
const (
	ModeH2 = browser.ModeH2
	ModeH3 = browser.ModeH3
	ModeH1 = browser.ModeH1
)

// HAR retention policies (CampaignConfig.Retention.Kind); the zero
// value RetainAll keeps every page log, matching historical behavior.
const (
	RetainAll    = har.RetainAll
	RetainSample = har.RetainSample
	RetainNone   = har.RetainNone
)

// ParseRetention parses a retention policy flag value: "all", "none",
// or "sample:N".
func ParseRetention(s string) (Retention, error) { return har.ParseRetention(s) }

// Run executes a measurement campaign (all probes × modes × pages).
func Run(cfg CampaignConfig) (*Dataset, error) { return core.RunCampaign(cfg) }

// NewUniverse builds one probe's simulated Internet.
func NewUniverse(cfg UniverseConfig) (*Universe, error) { return core.NewUniverse(cfg) }

// NewTopology builds the shared campaign topology for a corpus; pass it
// via UniverseConfig.Topology to amortize setup across many universes.
func NewTopology(corpus *Corpus) *Topology { return core.NewTopology(corpus) }

// GenerateCorpus builds the synthetic website population.
func GenerateCorpus(cfg CorpusConfig) *Corpus { return webgen.Generate(cfg) }

// Vantages returns the paper's three CloudLab probe sites.
func Vantages() []VantagePoint { return vantage.Points() }

// ComputeSiteMetrics aggregates a dataset per site.
func ComputeSiteMetrics(ds *Dataset) []SiteMetrics { return core.ComputeSiteMetrics(ds) }

// Experiment drivers and renderers, one per paper artifact.
var (
	Table1           = core.Table1
	ComputeTable2    = core.ComputeTable2
	ComputeFigure2   = core.ComputeFigure2
	ComputeFigure3   = core.ComputeFigure3
	ComputeFigure4   = core.ComputeFigure4
	ComputeFigure5   = core.ComputeFigure5
	ComputeFigure6a  = core.ComputeFigure6a
	ComputeFigure6b  = core.ComputeFigure6b
	ComputeFigure7ab = core.ComputeFigure7ab
	ComputeFigure7c  = core.ComputeFigure7c
	ComputeFigure8   = core.ComputeFigure8
	ComputeTable3    = core.ComputeTable3
	RunFigure9       = core.RunFigure9

	RenderTable1   = core.RenderTable1
	RenderTable2   = core.RenderTable2
	RenderFigure2  = core.RenderFigure2
	RenderFigure3  = core.RenderFigure3
	RenderFigure4  = core.RenderFigure4
	RenderFigure5  = core.RenderFigure5
	RenderFigure6a = core.RenderFigure6a
	RenderFigure6b = core.RenderFigure6b
	RenderFigure7  = core.RenderFigure7
	RenderFigure8  = core.RenderFigure8
	RenderTable3   = core.RenderTable3
	RenderFigure9  = core.RenderFigure9
)

// DefaultBaselineLoss is the ambient path loss used when
// CampaignConfig.LossRate is zero.
const DefaultBaselineLoss = core.DefaultBaselineLoss
