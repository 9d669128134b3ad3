package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"h3cdn/internal/browser"
	"h3cdn/internal/vantage"
	"h3cdn/internal/webgen"
)

func TestDatasetJSONRoundTrip(t *testing.T) {
	ds := smallCampaign(t, nil)
	var buf bytes.Buffer
	if err := ds.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != ds.Seed || got.Consecutive != ds.Consecutive {
		t.Fatalf("metadata: %+v", got)
	}
	if len(got.Corpus.Pages) != len(ds.Corpus.Pages) {
		t.Fatalf("corpus pages %d != %d", len(got.Corpus.Pages), len(ds.Corpus.Pages))
	}
	for _, mode := range []browser.Mode{browser.ModeH2, browser.ModeH3} {
		a, b := ds.Logs[mode], got.Logs[mode]
		if b == nil || len(a.Pages) != len(b.Pages) {
			t.Fatalf("mode %v: pages differ", mode)
		}
		for i := range a.Pages {
			if a.Pages[i].PLT != b.Pages[i].PLT {
				t.Fatalf("mode %v page %d: PLT %v != %v", mode, i, a.Pages[i].PLT, b.Pages[i].PLT)
			}
			if len(a.Pages[i].Entries) != len(b.Pages[i].Entries) {
				t.Fatalf("mode %v page %d: entry counts differ", mode, i)
			}
		}
	}
	// Analyses over the round-tripped dataset must agree.
	t2a, t2b := ComputeTable2(ds), ComputeTable2(got)
	if t2a.Total != t2b.Total || t2a.CDN["HTTP/3"] != t2b.CDN["HTTP/3"] {
		t.Fatalf("Table2 diverged after round trip: %+v vs %+v", t2a, t2b)
	}
}

func TestLoadDatasetRejectsGarbage(t *testing.T) {
	if _, err := LoadDataset(strings.NewReader("{nope")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadDataset(strings.NewReader(`{"corpus":{},"logs":{"spdy":{}}}`)); err == nil {
		t.Fatal("unknown mode accepted")
	}
	// The analyses dereference the corpus and every mode's log, and
	// read per-page logs: a file a campaign wrote under HAR retention
	// none holds none.
	for _, in := range []string{`{}`, `{"corpus":null,"logs":{}}`, `{"corpus":{"pages":[]},"logs":{"h2":null}}`,
		`{"corpus":{"pages":[]},"logs":{}}`, `{"corpus":{"pages":[]},"logs":{"h2":{"pages":[]},"h3":{"pages":null}}}`} {
		if _, err := LoadDataset(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", in)
		}
	}
}

// FuzzLoadDataset feeds the loader hostile dataset bytes, as
// h3cdn-report -dataset reads them. Each must fail with an error or load
// a dataset that every dataset row of Artifacts runs on without a panic,
// and that re-saves to bytes which load and save again unchanged.
func FuzzLoadDataset(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"corpus":{"pages":[]},"logs":{"h2":null}}`))
	ds, err := RunCampaign(CampaignConfig{
		Seed:             7,
		CorpusConfig:     webgen.Config{NumPages: 2, MeanResources: 6},
		Vantages:         vantage.Points()[:1],
		ProbesPerVantage: 1,
	})
	if err != nil {
		f.Fatal(err)
	}
	var real bytes.Buffer
	if err := ds.SaveJSON(&real); err != nil {
		f.Fatal(err)
	}
	f.Add(real.Bytes())
	// A pageless dataset, and one without an H3-mode log: Figure 5 and
	// Table III read it.
	f.Add([]byte(`{"corpus":{"pages":[]},"logs":{}}`))
	f.Add([]byte(`{"corpus":{"pages":[]},"logs":{"h2":{"pages":[{"site":"a.example","protocol":"h2","plt":1000000}]}}}`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		ds, err := LoadDataset(bytes.NewReader(blob))
		if err != nil {
			return
		}
		// Every row a dataset file may answer must run to a result or
		// an error.
		for _, a := range Artifacts {
			if a.Reads == PageLogs {
				arms, render, _ := a.Build(ReportInputs{})
				var err error
				for _, arm := range arms {
					if err = arm.Take(ds); err != nil {
						break
					}
				}
				if err == nil {
					render()
				}
			}
		}
		var first, second bytes.Buffer
		if err := ds.SaveJSON(&first); err != nil {
			t.Fatalf("loaded dataset does not save: %v", err)
		}
		again, err := LoadDataset(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-saved dataset does not load: %v", err)
		}
		if err := again.SaveJSON(&second); err != nil {
			t.Fatalf("reloaded dataset does not save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save is not stable across a load:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}

func TestModeByName(t *testing.T) {
	for _, m := range []browser.Mode{browser.ModeH1, browser.ModeH2, browser.ModeH3} {
		got, ok := modeByName(m.String())
		if !ok || got != m {
			t.Fatalf("modeByName(%q) = %v, %v", m.String(), got, ok)
		}
	}
	if _, ok := modeByName("gopher"); ok {
		t.Fatal("bogus mode resolved")
	}
}

// TestArtifactRows runs the -exp all rows of Artifacts through one Plan,
// with the small campaign fixtures saved as the standard and consecutive
// dataset files: they answer every row that reads per-page logs alone,
// Figure 9's 0%-added arm included, so only Figure 9's two lossy arms
// run. Each row must render text; each row a file answers must export
// plot files, none empty; and no two rows may export the same file name,
// which would overwrite one artifact's plot data with another's.
func TestArtifactRows(t *testing.T) {
	files := map[bool]string{}
	for _, consecutive := range []bool{false, true} {
		ds := smallCampaign(t, func(c *CampaignConfig) { c.Consecutive = consecutive })
		var buf bytes.Buffer
		if err := ds.SaveJSON(&buf); err != nil {
			t.Fatal(err)
		}
		files[consecutive] = filepath.Join(t.TempDir(), "dataset.json")
		if err := os.WriteFile(files[consecutive], buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	in := ReportInputs{
		Campaign: CampaignConfig{
			Seed:             7,
			CorpusConfig:     webgen.Config{NumPages: 12, MeanResources: 40},
			Vantages:         vantage.Points()[:1],
			ProbesPerVantage: 1,
		},
	}
	var rows []Artifact
	for _, a := range Artifacts {
		if a.InAll {
			rows = append(rows, a)
		}
	}
	plan, err := NewPlan(rows, in, files)
	if err != nil {
		t.Fatal(err)
	}
	if plan.runs != 2 {
		t.Fatalf("%d campaigns planned, want Figure 9's 2 lossy arms", plan.runs)
	}
	owner := map[string]string{}
	i := 0
	err = plan.Run(func(string, ...any) {}, func(text string, plots []PlotFile) {
		a := rows[i]
		i++
		if text == "" {
			t.Errorf("%s: empty text", a.ID)
		}
		if len(plots) == 0 && a.Reads == PageLogs {
			t.Errorf("%s: no plot files", a.ID)
		}
		for _, p := range plots {
			if p.Content == "" {
				t.Errorf("%s: %s is empty", a.ID, p.Name)
			}
			if prev, dup := owner[p.Name]; dup {
				t.Errorf("%s and %s both export %s", prev, a.ID, p.Name)
			}
			owner[p.Name] = a.ID
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPlanRefusesForeignDataset: a dataset file stands in for a campaign
// only if it records the run's seed, protocol and corpus size and, under
// RetainAll, holds the run's census: the corpus's pages in order at each
// probe. A file another campaign wrote is refused before any row
// renders, and the error names the row and the file.
func TestPlanRefusesForeignDataset(t *testing.T) {
	save := func(ds *Dataset) string {
		var buf bytes.Buffer
		if err := ds.SaveJSON(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "dataset.json")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	census := save(smallCampaign(t, nil))
	for _, tc := range []struct {
		name   string
		file   string
		mutate func(*CampaignConfig)
		want   string
	}{
		{"seed", census, func(c *CampaignConfig) { c.Seed = 5 }, "seed 7, this run's 5"},
		{"pages", census, func(c *CampaignConfig) { c.CorpusConfig.NumPages = 8 }, "12 corpus pages, this run's 8"},
		{"probes", census, func(c *CampaignConfig) { c.ProbesPerVantage = 3 }, "h2 log is not this run's census"},
		{"consecutive", save(smallCampaign(t, func(c *CampaignConfig) { c.Consecutive = true })), nil, "consecutive true, this run's false"},
		{"traffic", save(trafficCampaign(t, nil)), nil, "h2 log is not this run's census"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := ReportInputs{Campaign: CampaignConfig{
				Seed:             7,
				CorpusConfig:     webgen.Config{NumPages: 12, MeanResources: 40},
				Vantages:         vantage.Points()[:1],
				ProbesPerVantage: 1,
			}}
			if tc.mutate != nil {
				tc.mutate(&in.Campaign)
			}
			rows := []Artifact{artifactRow(t, "t2"), artifactRow(t, "f6a")}
			plan, err := NewPlan(rows, in, map[bool]string{false: tc.file})
			if err != nil {
				t.Fatal(err)
			}
			if plan.runs != 0 {
				t.Fatalf("%d campaigns planned, want the file to be read instead", plan.runs)
			}
			err = plan.Run(func(string, ...any) {}, func(string, []PlotFile) {
				t.Error("a row rendered from a foreign dataset")
			})
			if err == nil || !strings.Contains(err.Error(), "t2: "+tc.file+": ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run: %v, want the row, the file and %q", err, tc.want)
			}
		})
	}
}
