package h3cdn_test

import (
	"bytes"
	"testing"

	"h3cdn"
	"h3cdn/internal/vantage"
)

// TestPublicAPISmokeTour exercises the facade the way the README does.
func TestPublicAPISmokeTour(t *testing.T) {
	corpus := h3cdn.GenerateCorpus(h3cdn.CorpusConfig{Seed: 1, NumPages: 6, MeanResources: 40})
	if len(corpus.Pages) != 6 {
		t.Fatalf("%d pages", len(corpus.Pages))
	}

	u, err := h3cdn.NewUniverse(h3cdn.UniverseConfig{Seed: 1, Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	b := u.NewBrowser(h3cdn.BrowserConfig{Mode: h3cdn.ModeH3, EnableZeroRTT: true})
	log, err := u.RunVisit(b, &corpus.Pages[0])
	if err != nil {
		t.Fatal(err)
	}
	if log.PLT <= 0 || len(log.Entries) == 0 {
		t.Fatalf("log = %+v", log)
	}

	ds, err := h3cdn.Run(h3cdn.CampaignConfig{
		Seed:             1,
		Corpus:           corpus,
		Vantages:         vantage.Points()[:1],
		ProbesPerVantage: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out := h3cdn.RenderTable2(h3cdn.ComputeTable2(ds)); len(out) == 0 {
		t.Fatal("empty Table II render")
	}
	sms := h3cdn.ComputeSiteMetrics(ds)
	if len(sms) != 6 {
		t.Fatalf("%d site metrics", len(sms))
	}

	var buf bytes.Buffer
	if err := ds.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty dataset JSON")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := h3cdn.Table1()
	if len(rows) != 7 {
		t.Fatalf("%d providers, want 7", len(rows))
	}
	if rows[0].Provider != "Cloudflare" || rows[0].ReleaseYear != 2019 {
		t.Fatalf("first row %+v, want Cloudflare 2019", rows[0])
	}
	if rows[len(rows)-1].Provider != "Akamai" || rows[len(rows)-1].ReleaseYear != 2023 {
		t.Fatalf("last row %+v, want Akamai 2023", rows[len(rows)-1])
	}
}
