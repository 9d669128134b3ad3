package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"h3cdn/internal/core"
	"h3cdn/internal/vantage"
)

const header = `{"qlog_format":"JSON-SEQ","qlog_version":"0.3","title":"t.qlog"}`

func visit(dropped string) string {
	return header + "\n" +
		`{"time":0,"name":"sim:visit_start","data":{"site":"s","dropped_events":` + dropped + `}}` + "\n" +
		`{"time":1,"name":"tcp:syn_sent","data":{"conn":1}}` + "\n" +
		`{"time":2,"name":"sim:visit_end","data":{}}` + "\n"
}

// TestDroppedEventsMustBeCounts pins the dropped_events check: the
// writer delivers every event of a visit or fails it, so any value but
// the integer 0 is a writer bug.
func TestDroppedEventsMustBeCounts(t *testing.T) {
	sum, err := check(strings.NewReader(visit("0") + visit("0")[len(header)+1:]))
	if err != nil || sum.visits != 2 || sum.events != 2 {
		t.Fatalf("valid file: %+v, %v; want 2 visits, 2 events", sum, err)
	}
	for _, bad := range []string{"7", "1e300", "2.5", "-1", "0.0", `"0"`, "null", "9223372036854775808"} {
		_, err := check(strings.NewReader(visit(bad)))
		if err == nil || !strings.HasPrefix(err.Error(), "line 2: ") {
			t.Errorf("dropped_events %s: err = %v, want a line 2 rejection", bad, err)
		}
	}
	for _, bad := range []string{header + "}\n", header + "\nnull\n", "null\n", header + "\n{} {}\n"} {
		if _, err := check(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// measuredQlog returns one qlog file of the campaign
// `h3cdn-measure -pages 2 -qlog DIR` runs.
func measuredQlog(f *testing.F) []byte {
	cfg := core.CampaignConfig{Vantages: vantage.Points()}
	fs := flag.NewFlagSet("h3cdn-measure", flag.ContinueOnError)
	buildPath := cfg.BindFlags(fs)
	if err := fs.Parse([]string{"-pages", "2"}); err != nil {
		f.Fatal(err)
	}
	if err := buildPath(); err != nil {
		f.Fatal(err)
	}
	cfg.QlogDir = f.TempDir()
	if _, err := core.RunCampaign(cfg); err != nil {
		f.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(cfg.QlogDir, "*.qlog"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no qlog written: %v", err)
	}
	b, err := os.ReadFile(files[0])
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// FuzzQlogcheck asserts the checker never panics, and that whenever it
// accepts a stream its visits are the stream's visit_start lines.
func FuzzQlogcheck(f *testing.F) {
	f.Add(measuredQlog(f))
	f.Add([]byte(header + "\n"))
	f.Add([]byte("null\n"))
	f.Add([]byte(visit("1e300")))
	f.Add([]byte(visit("2.5")))
	f.Fuzz(func(t *testing.T, b []byte) {
		sum, err := check(bytes.NewReader(b))
		if err != nil {
			return
		}
		starts := 0
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(nil, 1<<20)
		for line := 1; sc.Scan(); line++ {
			var rec map[string]any
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Fatalf("accepted a line that is not JSON: %q", sc.Bytes())
			}
			if line > 1 && rec["name"] == "sim:visit_start" {
				starts++
			}
		}
		if sum.visits != starts {
			t.Fatalf("accepted with %d visits, stream has %d visit_start lines", sum.visits, starts)
		}
	})
}
