package core

// Figure9Losses are the added loss rates of §VI-E's Traffic Control
// sweep: 0%, 0.5%, and 1% on top of the ambient baseline.
func Figure9Losses() []float64 {
	return []float64{0, 0.005, 0.01}
}

// figure9Config is Figure 9's campaign at one added loss rate: the
// Traffic Control knob adds i.i.d. loss on top of the base config's path
// loss, and the base supplies corpus, vantages, and probes. The
// 0%-added arm is the base campaign itself, so a lossless base stays
// lossless there.
func figure9Config(base CampaignConfig, added float64) CampaignConfig {
	cfg := base.withDefaults()
	if added > 0 {
		cfg.LossRate = cfg.pathLoss() + added
	}
	return cfg
}

// figure9Arms are Figure 9's arms, one per added loss rate, each fitting
// its reduction-vs-resources series into the returned slice.
func figure9Arms(base CampaignConfig) ([]Arm, []Fig9Series) {
	series := make([]Fig9Series, len(Figure9Losses()))
	var arms []Arm
	for i, added := range Figure9Losses() {
		arms = append(arms, Arm{figure9Config(base, added), func(d *Dataset) (err error) {
			series[i], err = ComputeFigure9Series(d, added)
			return err
		}})
	}
	return arms, series
}

// RunFigure9 executes one campaign per added loss rate and fits each
// reduction-vs-resources series. Its arms run as a one-row Plan, which
// checks every arm, and refuses a base that keeps no page log, before
// any campaign runs.
func RunFigure9(base CampaignConfig) ([]Fig9Series, error) {
	arms, series := figure9Arms(base)
	row := Artifact{ID: "f9", Reads: PageLogs, Build: func(ReportInputs) ([]Arm, Render, error) {
		return arms, func() (string, []PlotFile) { return "", nil }, nil
	}}
	p, err := NewPlan([]Artifact{row}, ReportInputs{Campaign: base}, nil)
	if err == nil {
		err = p.Run(func(string, ...any) {}, func(string, []PlotFile) {})
	}
	if err != nil {
		return nil, err
	}
	return series, nil
}
