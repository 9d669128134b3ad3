package har

import (
	"fmt"
	"strconv"
	"strings"
)

// RetentionKind selects how a campaign handles finished PageLogs after
// they have been folded into the streaming metric accumulators.
type RetentionKind int

const (
	// RetainAll keeps every PageLog in the dataset — the zero value, so
	// existing configurations keep their exact-analysis behavior.
	RetainAll RetentionKind = iota
	// RetainSample keeps a deterministic uniform sample of at most
	// Retention.Sample PageLogs per shard.
	RetainSample
	// RetainNone frees every PageLog as soon as it is folded; analyses
	// run entirely from the sketches.
	RetainNone
)

// Retention is a campaign's HAR retention policy. The zero value is
// RetainAll.
type Retention struct {
	Kind RetentionKind
	// Sample is the per-shard reservoir capacity (RetainSample only).
	Sample int
}

// ParseRetention parses the command-line forms "all", "none", and
// "sample:N" (N ≥ 1).
func ParseRetention(s string) (Retention, error) {
	switch {
	case s == "all":
		return Retention{Kind: RetainAll}, nil
	case s == "none":
		return Retention{Kind: RetainNone}, nil
	case strings.HasPrefix(s, "sample:"):
		n, err := strconv.Atoi(strings.TrimPrefix(s, "sample:"))
		if err != nil || n < 1 {
			return Retention{}, fmt.Errorf("har: invalid retention sample size %q (want sample:N with N ≥ 1)", s)
		}
		return Retention{Kind: RetainSample, Sample: n}, nil
	default:
		return Retention{}, fmt.Errorf("har: invalid retention policy %q (want all, none, or sample:N)", s)
	}
}

// String renders the policy in its ParseRetention form.
func (r Retention) String() string {
	switch r.Kind {
	case RetainSample:
		return "sample:" + strconv.Itoa(r.Sample)
	case RetainNone:
		return "none"
	default:
		return "all"
	}
}

// Set parses s in the ParseRetention forms into r, so a *Retention is
// a flag.Value and a malformed value fails flag parsing.
func (r *Retention) Set(s string) error {
	parsed, err := ParseRetention(s)
	if err != nil {
		return err
	}
	*r = parsed
	return nil
}

// Validate reports whether the policy is well-formed.
func (r Retention) Validate() error {
	switch r.Kind {
	case RetainAll, RetainNone:
		return nil
	case RetainSample:
		if r.Sample < 1 {
			return fmt.Errorf("har: retention sample size must be ≥ 1, got %d", r.Sample)
		}
		return nil
	default:
		return fmt.Errorf("har: unknown retention kind %d", r.Kind)
	}
}
