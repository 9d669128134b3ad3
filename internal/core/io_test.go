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
	// The analyses dereference the corpus and every mode's log.
	for _, in := range []string{`{}`, `{"corpus":null,"logs":{}}`, `{"corpus":{"pages":[]},"logs":{"h2":null}}`} {
		if _, err := LoadDataset(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", in)
		}
	}
}

// FuzzLoadDataset feeds the loader hostile dataset bytes, as
// h3cdn-report -dataset reads them. Each must fail with an error or load
// a dataset the analyses run on without a panic, and that re-saves to
// bytes which load and save again unchanged.
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
	f.Fuzz(func(t *testing.T, blob []byte) {
		ds, err := LoadDataset(bytes.NewReader(blob))
		if err != nil {
			return
		}
		ComputeSiteMetrics(ds)
		ComputeTable2(ds)
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

func TestWritePlotData(t *testing.T) {
	ds := smallCampaign(t, nil)
	cons := smallCampaign(t, func(c *CampaignConfig) { c.Consecutive = true })
	fig9 := []Fig9Series{{LossRate: 0.005, Slope: 1.2, Intercept: 3}}
	dir := t.TempDir()
	if err := WritePlotData(dir, ds, cons, fig9); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"table2.txt", "fig2.tsv", "fig3_ccdf.tsv", "fig4a.tsv", "fig4b.tsv",
		"fig6a.tsv", "fig6b_connect.tsv", "fig7ab.tsv", "fig7c.tsv",
		"fig8.tsv", "fig9_loss0.5.tsv",
	} {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if info.Size() == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
}
