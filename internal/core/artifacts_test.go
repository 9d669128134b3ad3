package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"h3cdn/internal/har"
	"h3cdn/internal/traffic"
	"h3cdn/internal/vantage"
	"h3cdn/internal/webgen"
)

// artifactRow returns the Artifacts row with the given id.
func artifactRow(t *testing.T, id string) Artifact {
	t.Helper()
	i := slices.IndexFunc(Artifacts, func(a Artifact) bool { return a.ID == id })
	if i < 0 {
		t.Fatalf("no artifact %q", id)
	}
	return Artifacts[i]
}

// runSweep builds a sweep's arms under in and runs the campaign of each,
// returning the rows they fill.
func runSweep[T any](t *testing.T, arms func(ReportInputs) ([]Arm, []T, error), in ReportInputs) []T {
	t.Helper()
	a, rows, err := arms(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range a {
		d, err := RunCampaign(arm.Config)
		if err == nil {
			err = arm.Take(d)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return rows
}

// TestPlanCampaignCounts plans report rows without running them: equal
// configs share one campaign, and a dataset file answers the arms of the
// rows that read per-page logs alone whose config is the base campaign,
// never a row that reads what only a campaign holds.
func TestPlanCampaignCounts(t *testing.T) {
	in := ReportInputs{
		Campaign: CampaignConfig{
			Seed:             7,
			CorpusConfig:     webgen.Config{NumPages: 6},
			Vantages:         vantage.Points(),
			ProbesPerVantage: 1,
		},
		BurstLen: 4,
		Profiles: []string{"stepdown", "umts", "lte"},
		Pop:      traffic.Config{Users: 16, ArrivalRate: 2, Duration: 20 * time.Second},
		PopSizes: []int{4, 16},
	}
	var all []Artifact
	for _, a := range Artifacts {
		if a.InAll {
			all = append(all, a)
		}
	}
	files := map[bool]string{false: "std.json", true: "cons.json"}
	cases := []struct {
		name            string
		rows            []Artifact
		files           map[bool]string
		campaigns, read int
	}{
		// standard (= f9's 0% arm), consecutive, f9 at 0.5% and 1%.
		{"all", all, nil, 4, 0},
		// lossprofile's i.i.d. arms are f9's; it adds two bursty arms.
		{"all+lossprofile", append(all[:len(all):len(all)], artifactRow(t, "lossprofile")), nil, 6, 0},
		// The files answer t2..t3 and f9's 0% arm; f9's other arms run.
		{"all-from-files", all, files, 2, 2},
		{"f9-from-files", []Artifact{artifactRow(t, "f9")}, files, 2, 1},
		{"lossprofile-from-files", []Artifact{artifactRow(t, "t2"), artifactRow(t, "lossprofile")}, files, 5, 1},
		{"phases", []Artifact{artifactRow(t, "t2"), artifactRow(t, "phases")}, nil, 2, 0},
		{"celltrace", []Artifact{artifactRow(t, "celltrace")}, nil, 2 * len(in.Profiles), 0},
		{"popcache", []Artifact{artifactRow(t, "popcache")}, nil, 3 * len(in.PopSizes), 0},
		{"t1", []Artifact{artifactRow(t, "t1")}, nil, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := NewPlan(tc.rows, in, tc.files)
			if err != nil {
				t.Fatal(err)
			}
			if campaigns, read := plan.runs, len(plan.reads)-plan.runs; campaigns != tc.campaigns || read != tc.read {
				t.Fatalf("%d campaigns and %d files, want %d and %d", campaigns, read, tc.campaigns, tc.read)
			}
			for _, r := range plan.reads {
				for _, take := range r.takes {
					if a := artifactRow(t, take.id); r.file != "" && a.Reads != PageLogs {
						t.Errorf("%s reads %q", a.ID, r.file)
					}
				}
			}
		})
	}
}

// TestPlanRetention plans every row under each HAR retention: under none
// the rows that read per-page logs are refused, naming the row, before
// any campaign runs, and the others plan; under all and sample:2 every
// row plans.
func TestPlanRetention(t *testing.T) {
	refused := []string{"t2", "f2", "f3", "f4", "f5", "f6a", "f6b", "f7", "f8", "t3", "f9", "lossprofile", "celltrace"}
	planned := []string{"t1", "phases", "popcache"}
	in := ReportInputs{
		Campaign: CampaignConfig{CorpusConfig: webgen.Config{NumPages: 6}, Vantages: vantage.Points()},
		BurstLen: 4,
		Profiles: []string{"lte"},
		Pop:      traffic.Config{Users: 16, ArrivalRate: 2, Duration: 20 * time.Second},
		PopSizes: []int{16},
	}
	for _, a := range Artifacts {
		if slices.Contains(refused, a.ID) == slices.Contains(planned, a.ID) {
			t.Fatalf("%s: in neither list or in both", a.ID)
		}
		for _, ret := range []har.Retention{{Kind: har.RetainAll}, {Kind: har.RetainSample, Sample: 2}, {Kind: har.RetainNone}} {
			in.Campaign.Retention = ret
			_, err := NewPlan([]Artifact{a}, in, nil)
			want := ret.Kind == har.RetainNone && slices.Contains(refused, a.ID)
			if (err != nil) != want {
				t.Errorf("%s under %v: error %v, want refused %v", a.ID, ret, err, want)
			} else if err != nil && !strings.HasPrefix(err.Error(), a.ID+": ") {
				t.Errorf("%s under %v: error %q does not name the row", a.ID, ret, err)
			}
		}
	}
}

// TestPlanFigure9LossArms pins the added-loss knob on f9's planned
// configs: the arms add 0, 0.5 and 1% to the base's path loss, a
// lossless base stays lossless at 0% added, and defaulting a planned
// config again changes nothing.
func TestPlanFigure9LossArms(t *testing.T) {
	for _, tc := range []struct {
		base, path float64 // the base config's LossRate and path loss
	}{
		{-1, 0},
		{0, DefaultBaselineLoss},
		{0.02, 0.02},
	} {
		want := []float64{tc.path, tc.path + 0.005, tc.path + 0.01}
		plan, err := NewPlan([]Artifact{artifactRow(t, "f9")}, ReportInputs{Campaign: CampaignConfig{LossRate: tc.base}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got []float64
		for _, r := range plan.reads {
			cfg := r.cfg
			if again := cfg.withDefaults(); !reflect.DeepEqual(again, cfg) {
				t.Errorf("base loss %v: defaulting twice moves LossRate %v to %v", tc.base, cfg.LossRate, again.LossRate)
			}
			got = append(got, cfg.pathLoss())
		}
		if !slices.Equal(got, want) {
			t.Errorf("base loss %v: arms at path loss %v, want %v", tc.base, got, want)
		}
	}
}

// TestRunFigure9RejectsBadBase runs Figure 9 on bases that fail
// validation, one in every arm and one only in its 1%-added arm: each
// returns an error before any campaign runs.
func TestRunFigure9RejectsBadBase(t *testing.T) {
	base := CampaignConfig{CorpusConfig: webgen.Config{NumPages: 2}, Vantages: vantage.Points()[:1]}
	probes, loss := base, base
	probes.ProbesPerVantage = -1
	loss.LossRate = 0.996
	for _, bad := range []CampaignConfig{probes, loss} {
		series, err := RunFigure9(bad)
		if err == nil {
			t.Errorf("probes %d, loss %v: %d series, no error", bad.ProbesPerVantage, bad.LossRate, len(series))
		} else if !strings.HasPrefix(err.Error(), "f9: core: ") {
			t.Errorf("probes %d, loss %v: error %q, want a check's", bad.ProbesPerVantage, bad.LossRate, err)
		}
	}
}

// TestRunFigure9RefusesRetainNone runs Figure 9 on a base that keeps no
// page log: the plan's refusal names the cause before any campaign runs.
func TestRunFigure9RefusesRetainNone(t *testing.T) {
	base := CampaignConfig{
		CorpusConfig: webgen.Config{NumPages: 2},
		Vantages:     vantage.Points()[:1],
		Retention:    har.Retention{Kind: har.RetainNone},
	}
	series, err := RunFigure9(base)
	const want = "f9: reads per-page logs, which HAR retention none does not keep"
	if err == nil || err.Error() != want {
		t.Fatalf("RunFigure9 on RetainNone: %d series, err %v; want %q", len(series), err, want)
	}
}

// TestPlanRunsEachCampaignOnce runs every -exp all row plus lossprofile
// through one Plan: each of the 6 distinct configs runs once, although
// f9 and lossprofile read the standard campaign and lossprofile reads
// its 0%-added arm twice; and every row renders, in row order.
func TestPlanRunsEachCampaignOnce(t *testing.T) {
	in := ReportInputs{
		Campaign: CampaignConfig{
			Seed:             7,
			CorpusConfig:     webgen.Config{NumPages: 8, MeanResources: 20},
			Vantages:         vantage.Points()[:1],
			ProbesPerVantage: 1,
		},
		BurstLen: 4,
	}
	var rows []Artifact
	for _, a := range Artifacts {
		if a.InAll || a.ID == "lossprofile" {
			rows = append(rows, a)
		}
	}
	plan, err := NewPlan(rows, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	logf := func(format string, _ ...any) {
		if strings.HasPrefix(format, "running campaign") {
			ran++
		}
	}
	var texts []string
	err = plan.Run(logf, func(text string, _ []PlotFile) { texts = append(texts, text) })
	if err != nil {
		t.Fatal(err)
	}
	if ran != 6 {
		t.Fatalf("%d campaigns ran, want 6", ran)
	}
	if len(texts) != len(rows) {
		t.Fatalf("%d rows rendered, want %d", len(texts), len(rows))
	}
	for i, want := range []string{"Table I:", "Table II:"} {
		if !strings.HasPrefix(texts[i], want) {
			t.Errorf("row %d renders %.40q, want %s", i, texts[i], want)
		}
	}
	if !strings.HasPrefix(texts[len(texts)-1], "Loss profile") {
		t.Errorf("last row renders %.40q, want the loss profile", texts[len(texts)-1])
	}
}
