package core

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"h3cdn/internal/har"
	"h3cdn/internal/simnet"
)

// parseFlags binds a fresh config's flags, parses args, builds the path
// and validates, the sequence both commands run before any work.
func parseFlags(args ...string) (CampaignConfig, error) {
	var c CampaignConfig
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	buildPath := c.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if err := buildPath(); err != nil {
		return c, err
	}
	return c, c.Validate()
}

// TestBindFlags: the shared flags bind their defaults and parsed values
// straight into the fields they set, and a bad -pages or -har-retention
// fails the parse itself.
func TestBindFlags(t *testing.T) {
	c, err := parseFlags()
	if err != nil || c.Seed != 2022 || c.CorpusConfig.NumPages != 325 || c.ProbesPerVantage != 1 || c.Retention != (har.Retention{Kind: har.RetainAll}) ||
		c.LossRate != 0 || c.Workers != 0 || c.FetchRetries != 0 || c.Impairment != nil || c.LinkTrace != nil {
		t.Fatalf("defaults: %+v, %v", c, err)
	}
	c, err = parseFlags("-seed", "7", "-pages", "12", "-probes", "3", "-har-retention", "sample:4", "-loss", "-1", "-workers", "2", "-retries", "3")
	if err != nil || c.Seed != 7 || c.CorpusConfig.NumPages != 12 || c.ProbesPerVantage != 3 || c.Retention != (har.Retention{Kind: har.RetainSample, Sample: 4}) ||
		c.LossRate != -1 || c.Workers != 2 || c.FetchRetries != 3 {
		t.Fatalf("parsed: %+v, %v", c, err)
	}
	for _, args := range [][]string{
		{"-pages", "0"}, {"-pages", "-3"}, {"-pages", "many"},
		{"-har-retention", "sample:0"}, {"-har-retention", "keep"},
	} {
		var c CampaignConfig
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		c.BindFlags(fs)
		if err := fs.Parse(args); err == nil {
			t.Errorf("%v: parsed without error", args)
		}
	}

	// The report's binding also reads -burst-len into BurstLen.
	var in ReportInputs
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	in.BindFlags(fs)
	if in.BurstLen != 4 {
		t.Fatalf("default BurstLen %v, want 4", in.BurstLen)
	}
	if err := fs.Parse([]string{"-burst-len", "6"}); err != nil || in.BurstLen != 6 {
		t.Fatalf("-burst-len 6: BurstLen %v, %v", in.BurstLen, err)
	}
}

// TestPathFlags covers the path flags from parse to Validate: each bad
// value is refused with an error that names it, whether the flag-time
// check (a value the builders would clamp or drop) or Validate's check
// of the built Impairment refuses it, and good values pass.
func TestPathFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of the error, "" = valid
	}{
		{"defaults", nil, ""},
		{"all-knobs-on", []string{"-burst-loss", "0.02", "-jitter", "2ms", "-reorder", "0.1", "-reorder-delay", "5ms"}, ""},
		{"negative-burst-loss", []string{"-burst-loss", "-0.01"}, "-burst-loss"},
		{"nan-burst-loss", []string{"-burst-loss", "NaN"}, "-burst-loss"},
		{"burst-loss-at-clamp", []string{"-burst-loss", "0.5"}, ""},
		{"burst-loss-above-clamp", []string{"-burst-loss", "0.7"}, "-burst-loss"},
		{"burst-len-one", []string{"-burst-len", "1"}, ""},
		{"burst-len-below-one", []string{"-burst-len", "0.5"}, "-burst-len"},
		{"negative-burst-len", []string{"-burst-len", "-2"}, "-burst-len"},
		{"nan-burst-len", []string{"-burst-len", "NaN"}, "-burst-len"},
		{"inf-burst-len", []string{"-burst-len", "Inf"}, "-burst-len"},
		{"negative-jitter", []string{"-jitter", "-1ms"}, "jitter"},
		{"negative-reorder", []string{"-reorder", "-0.5"}, "reorder rate"},
		{"nan-reorder", []string{"-reorder", "NaN"}, "reorder rate"},
		{"certain-reorder", []string{"-reorder", "1"}, ""},
		{"reorder-above-one", []string{"-reorder", "3"}, "reorder rate"},
		{"negative-reorder-delay", []string{"-reorder-delay", "-1s"}, "-reorder-delay"},
		{"zero-trace-scale", []string{"-trace-scale", "0"}, "-trace-scale"},
		{"negative-trace-scale", []string{"-trace-scale", "-2"}, "-trace-scale"},
		{"nan-trace-scale", []string{"-trace-scale", "NaN"}, "-trace-scale"},
		{"inf-trace-scale", []string{"-trace-scale", "Inf"}, "-trace-scale"},
		{"outages", []string{"-outage", "2s-4s,10s-11s"}, ""},
		{"outages-out-of-order", []string{"-outage", "10s-11s,2s-4s"}, "outage"},
		{"outages-overlapping", []string{"-outage", "1s-3s,2s-4s"}, "outage"},
		{"link-trace-profile", []string{"-link-trace", "lte", "-trace-scale", "0.5"}, ""},
		{"link-trace-missing-file", []string{"-link-trace", filepath.Join(os.TempDir(), "no-such-dir", "cell.trace")}, "link-trace"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseFlags(tc.args...)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error naming %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the offending flag %q", err, tc.wantErr)
			}
		})
	}
}

// TestPathFlagsBuild pins what the path flags build: no Impairment while
// every knob is off (-burst-len and -reorder-delay alone change
// nothing), and every knob's value where it is on.
func TestPathFlagsBuild(t *testing.T) {
	for _, args := range [][]string{nil, {"-burst-len", "6"}, {"-reorder-delay", "5ms"}, {"-trace-scale", "2"}} {
		if c, err := parseFlags(args...); err != nil || c.Impairment != nil || c.LinkTrace != nil {
			t.Errorf("%v: Impairment %+v, LinkTrace %v, %v; want neither", args, c.Impairment, c.LinkTrace, err)
		}
	}
	c, err := parseFlags("-burst-loss", "0.02", "-burst-len", "5", "-jitter", "2ms", "-reorder", "0.01", "-reorder-delay", "3ms", "-outage", "2s-3s", "-link-trace", "lte", "-trace-scale", "0.5")
	if err != nil {
		t.Fatal(err)
	}
	want := simnet.GilbertElliott(0.02, 5)
	want.JitterMax, want.ReorderRate, want.ReorderDelay = 2*time.Millisecond, 0.01, 3*time.Millisecond
	want.Outages = []simnet.Outage{{Start: 2 * time.Second, End: 3 * time.Second}}
	if c.Impairment == nil || !reflect.DeepEqual(*c.Impairment, want) {
		t.Fatalf("Impairment %+v, want %+v", c.Impairment, want)
	}
	if c.LinkTrace == nil || c.LinkTrace.Name() != "synthetic:lte" {
		t.Fatalf("LinkTrace %v, want the scaled lte profile", c.LinkTrace)
	}
	// Without -reorder the hold-back delay is not part of the profile.
	if c, err := parseFlags("-jitter", "1ms", "-reorder-delay", "3ms"); err != nil || c.Impairment == nil || c.Impairment.ReorderDelay != 0 {
		t.Fatalf("-jitter without -reorder: %+v, %v", c.Impairment, err)
	}
}
