package core

import (
	"encoding/json"
	"fmt"
	"io"

	"h3cdn/internal/browser"
	"h3cdn/internal/har"
	"h3cdn/internal/webgen"
)

// datasetJSON is the serialized form of a Dataset (modes keyed by their
// string names).
type datasetJSON struct {
	Seed        uint64              `json:"seed"`
	Consecutive bool                `json:"consecutive"`
	Corpus      *webgen.Corpus      `json:"corpus"`
	Logs        map[string]*har.Log `json:"logs"`
}

func modeByName(name string) (browser.Mode, bool) {
	for _, m := range []browser.Mode{browser.ModeH1, browser.ModeH2, browser.ModeH3} {
		if m.String() == name {
			return m, true
		}
	}
	return 0, false
}

// SaveJSON serializes the dataset.
func (d *Dataset) SaveJSON(w io.Writer) error {
	out := datasetJSON{
		Seed:        d.Seed,
		Consecutive: d.Consecutive,
		Corpus:      d.Corpus,
		Logs:        make(map[string]*har.Log, len(d.Logs)),
	}
	for mode, log := range d.Logs {
		out.Logs[mode.String()] = log
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(&out); err != nil {
		return fmt.Errorf("core: save dataset: %w", err)
	}
	return nil
}

// LoadDataset deserializes a dataset written by SaveJSON. A dataset
// without a corpus, with a null log for a mode, or whose logs hold no
// page (a campaign's under HAR retention none) is rejected: the analyses
// read both, and per-page logs are all a dataset file holds.
func LoadDataset(r io.Reader) (*Dataset, error) {
	var in datasetJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("core: load dataset: %w", err)
	}
	if in.Corpus == nil {
		return nil, fmt.Errorf("core: load dataset: no corpus")
	}
	ds := &Dataset{
		Seed:        in.Seed,
		Consecutive: in.Consecutive,
		Corpus:      in.Corpus,
		Logs:        make(map[browser.Mode]*har.Log, len(in.Logs)),
	}
	pages := 0
	for name, log := range in.Logs {
		mode, ok := modeByName(name)
		if !ok {
			return nil, fmt.Errorf("core: load dataset: unknown mode %q", name)
		}
		if log == nil {
			return nil, fmt.Errorf("core: load dataset: mode %s has a null log", name)
		}
		ds.Logs[mode] = log
		pages += len(log.Pages)
	}
	if pages == 0 {
		return nil, fmt.Errorf("core: load dataset: no page in any log")
	}
	return ds, nil
}
