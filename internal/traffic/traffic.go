// Package traffic models an open-loop population workload for the
// campaign engine: a seeded population of users generates page visits
// from a Poisson arrival process with diurnal rate modulation, each
// arrival starting a multi-visit browsing session with think times and
// Zipf-popular page choices, all sessions contending on shared
// TTL-bearing edge caches. The package holds the pure model — arrival
// generation, session plans, configuration, counters, and checkpoint
// serialization; the epoch loop that wires sessions into simulated
// universes lives in internal/core.
//
// Everything is deterministic by construction: arrivals and session
// draws come from label-derived seqrand streams keyed by (epoch,
// arrival index), so the workload is a pure function of the shard seed
// — independent of worker count, scheduler interleaving, and
// checkpoint/resume boundaries. Users are lazily materialized: an idle
// user is just an index; only users who have learned something (an
// Alt-Svc entry) occupy memory.
package traffic

import (
	"fmt"
	"math"
	"time"
)

// DefaultUsersPerShard is the user-partition granularity when
// Config.UsersPerShard is zero: populations at or below this size run
// as a single shard per (mode, vantage).
const DefaultUsersPerShard = 4096

// Config tunes one population-traffic campaign. The zero value is not
// runnable: Users, ArrivalRate, and Duration are required.
type Config struct {
	// Users is the population size (across all shards of one mode ×
	// vantage). Required.
	Users int
	// UsersPerShard partitions the population into shards (0 selects
	// DefaultUsersPerShard). Each shard simulates its own slice of the
	// population against its own edges — an independent PoP — which is
	// what keeps datasets byte-identical across worker counts.
	UsersPerShard int
	// ArrivalRate is the mean session-arrival rate of the whole
	// population, in sessions per second of virtual time. Each shard
	// generates its population-proportional slice. Required.
	ArrivalRate float64
	// DiurnalAmplitude modulates the arrival rate sinusoidally:
	// rate(t) = ArrivalRate · (1 + A·sin(2πt/DiurnalPeriod)), A in
	// [0, 1). Zero disables modulation.
	DiurnalAmplitude float64
	// DiurnalPeriod is the modulation period (default 1h).
	DiurnalPeriod time.Duration
	// Duration is the campaign's virtual-time horizon: arrivals are
	// generated in [0, Duration). Required.
	Duration time.Duration
	// EpochInterval is the checkpoint granularity: the campaign runs in
	// epochs of this length, each in a fresh universe, with caches and
	// user memory carried across (0 selects Duration — one epoch).
	EpochInterval time.Duration
	// SessionVisits is the mean session length in visits (geometric,
	// minimum 1). Default 3.
	SessionVisits float64
	// ThinkTime is the mean think time between a session's visits
	// (exponential). Default 5s.
	ThinkTime time.Duration
	// ZipfS is the page-popularity Zipf exponent (> 1). Default 1.2.
	ZipfS float64
	// CacheTTL is the edge-cache entry lifetime. Default 60s.
	CacheTTL time.Duration
	// MaxInFlight bounds concurrently loading visits per shard; a visit
	// arriving at the bound is shed (and its session abandoned), making
	// open-loop overload visible instead of queueing silently.
	// Default 64.
	MaxInFlight int
	// CheckpointDir, when non-empty, enables periodic checkpointing:
	// each shard writes its state there after every epoch and resumes
	// from it on the next run. The directory must exist.
	CheckpointDir string
	// HaltAfterEpochs, when positive, stops each shard after running
	// that many epochs this process (checkpoints written as usual) — a
	// kill switch for exercising resume in tests.
	HaltAfterEpochs int
}

// WithDefaults returns the config with zero optional fields filled.
func (c Config) WithDefaults() Config {
	if c.UsersPerShard <= 0 {
		c.UsersPerShard = DefaultUsersPerShard
	}
	if c.DiurnalPeriod == 0 {
		c.DiurnalPeriod = time.Hour
	}
	if c.EpochInterval <= 0 || c.EpochInterval > c.Duration {
		c.EpochInterval = c.Duration
	}
	if c.SessionVisits == 0 {
		c.SessionVisits = 3
	}
	if c.ThinkTime == 0 {
		c.ThinkTime = 5 * time.Second
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.2
	}
	if c.CacheTTL == 0 {
		c.CacheTTL = 60 * time.Second
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 64
	}
	return c
}

// Validate reports the first configuration error, checking the raw
// values before defaulting (so explicit nonsense is rejected rather
// than silently defaulted).
func (c Config) Validate() error {
	if c.Users <= 0 {
		return fmt.Errorf("traffic: users must be positive (got %d)", c.Users)
	}
	if c.ArrivalRate <= 0 || math.IsNaN(c.ArrivalRate) || math.IsInf(c.ArrivalRate, 0) {
		return fmt.Errorf("traffic: arrival rate must be a positive finite number (got %v)", c.ArrivalRate)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("traffic: duration must be positive (got %v)", c.Duration)
	}
	if c.DiurnalAmplitude < 0 || c.DiurnalAmplitude >= 1 || math.IsNaN(c.DiurnalAmplitude) {
		return fmt.Errorf("traffic: diurnal amplitude must be in [0, 1) (got %v)", c.DiurnalAmplitude)
	}
	if c.DiurnalPeriod < 0 {
		return fmt.Errorf("traffic: diurnal period must be positive (got %v)", c.DiurnalPeriod)
	}
	if c.EpochInterval < 0 {
		return fmt.Errorf("traffic: epoch interval must be positive (got %v)", c.EpochInterval)
	}
	if c.SessionVisits < 0 || math.IsNaN(c.SessionVisits) || (c.SessionVisits > 0 && c.SessionVisits < 1) {
		return fmt.Errorf("traffic: mean session visits must be ≥ 1 (got %v)", c.SessionVisits)
	}
	if c.ThinkTime < 0 {
		return fmt.Errorf("traffic: think time must be non-negative (got %v)", c.ThinkTime)
	}
	if c.ZipfS != 0 && (c.ZipfS <= 1 || math.IsNaN(c.ZipfS) || math.IsInf(c.ZipfS, 0)) {
		return fmt.Errorf("traffic: zipf exponent must be > 1 (got %v)", c.ZipfS)
	}
	if c.CacheTTL < 0 {
		return fmt.Errorf("traffic: cache TTL must be positive (got %v)", c.CacheTTL)
	}
	if c.MaxInFlight < 0 {
		return fmt.Errorf("traffic: max in-flight visits must be positive (got %d)", c.MaxInFlight)
	}
	if c.UsersPerShard < 0 {
		return fmt.Errorf("traffic: users per shard must be positive (got %d)", c.UsersPerShard)
	}
	if c.HaltAfterEpochs < 0 {
		return fmt.Errorf("traffic: halt-after epochs must be non-negative (got %d)", c.HaltAfterEpochs)
	}
	return nil
}

// Epochs returns the number of checkpoint epochs the horizon divides
// into (config must be defaulted).
func (c Config) Epochs() int {
	return int((c.Duration + c.EpochInterval - 1) / c.EpochInterval)
}

// Counters are the arrival-process execution counters of one shard (or,
// merged, one campaign). VisitsGenerated = VisitsCompleted + VisitsShed
// always holds: a visit is generated the moment the session model
// attempts it, and every attempt either completes or is shed at the
// in-flight bound.
type Counters struct {
	SessionsStarted int64 `json:"sessionsStarted"`
	VisitsGenerated int64 `json:"visitsGenerated"`
	VisitsCompleted int64 `json:"visitsCompleted"`
	VisitsShed      int64 `json:"visitsShed,omitempty"`

	// Edge-cache contention totals, summed over every edge and epoch.
	CacheHits    int64 `json:"cacheHits,omitempty"`
	CacheMisses  int64 `json:"cacheMisses,omitempty"`
	CacheExpired int64 `json:"cacheExpired,omitempty"`
	Stampedes    int64 `json:"stampedes,omitempty"`

	// Connection totals across sessions: ResumedConns/ConnsOpened is
	// the population's session-resumption (0-RTT eligibility) fraction.
	ConnsOpened  int64 `json:"connsOpened,omitempty"`
	ResumedConns int64 `json:"resumedConns,omitempty"`
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.SessionsStarted += o.SessionsStarted
	c.VisitsGenerated += o.VisitsGenerated
	c.VisitsCompleted += o.VisitsCompleted
	c.VisitsShed += o.VisitsShed
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
	c.CacheExpired += o.CacheExpired
	c.Stampedes += o.Stampedes
	c.ConnsOpened += o.ConnsOpened
	c.ResumedConns += o.ResumedConns
}

// EpochStat is one epoch's edge-contention readout — the "hit rate over
// time" series as caches warm from cold.
type EpochStat struct {
	Epoch        int   `json:"epoch"`
	Visits       int64 `json:"visits"`
	CacheHits    int64 `json:"cacheHits"`
	CacheMisses  int64 `json:"cacheMisses"`
	CacheExpired int64 `json:"cacheExpired,omitempty"`
	Stampedes    int64 `json:"stampedes,omitempty"`
}

// HitRate returns the epoch's edge hit rate (0 when idle).
func (e EpochStat) HitRate() float64 {
	total := e.CacheHits + e.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(e.CacheHits) / float64(total)
}

// Report aggregates a traffic campaign's emergent outputs across
// shards: merged counters plus the per-epoch contention series (epoch
// rows summed elementwise across shards).
type Report struct {
	Counters Counters    `json:"counters"`
	Epochs   []EpochStat `json:"epochs"`
}

// Merge folds o into r (associative and commutative).
func (r *Report) Merge(o *Report) {
	if o == nil {
		return
	}
	r.Counters.Add(o.Counters)
	for _, es := range o.Epochs {
		for len(r.Epochs) <= es.Epoch {
			r.Epochs = append(r.Epochs, EpochStat{Epoch: len(r.Epochs)})
		}
		dst := &r.Epochs[es.Epoch]
		dst.Visits += es.Visits
		dst.CacheHits += es.CacheHits
		dst.CacheMisses += es.CacheMisses
		dst.CacheExpired += es.CacheExpired
		dst.Stampedes += es.Stampedes
	}
}

// ResumptionFraction returns ResumedConns/ConnsOpened (0 when no
// connections were opened).
func (r *Report) ResumptionFraction() float64 {
	if r.Counters.ConnsOpened == 0 {
		return 0
	}
	return float64(r.Counters.ResumedConns) / float64(r.Counters.ConnsOpened)
}
