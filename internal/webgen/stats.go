package webgen

// CorpusStats summarizes the generated population; used by tests to check
// calibration and by the corpus inspection tool.
type CorpusStats struct {
	Pages          int
	TotalResources int
	CDNResources   int
	// CDNFraction is CDN resources over all resources.
	CDNFraction float64
	// PagesOverHalfCDN is the fraction of pages with >50% CDN
	// resources (Fig. 3's headline point: ~0.75).
	PagesOverHalfCDN float64
	// ProviderPresence is the fraction of pages each provider appears
	// on (Fig. 4a).
	ProviderPresence map[string]float64
	// PagesWithKProviders histograms pages by distinct provider count
	// (Fig. 4b).
	PagesWithKProviders map[int]int
	// AtLeastTwoProviders is the fraction of pages using ≥2 providers
	// (paper: 94.8%).
	AtLeastTwoProviders float64
	// H3Hostnames is the fraction of hostnames with H3 enabled.
	H3Hostnames float64
	// SmallResources is the fraction of CDN resources under 20KB
	// (paper: ~75%).
	SmallResources float64
}

// Stats computes corpus summary statistics.
func (c *Corpus) Stats() CorpusStats {
	st := CorpusStats{
		Pages:               len(c.Pages),
		ProviderPresence:    make(map[string]float64),
		PagesWithKProviders: make(map[int]int),
	}
	smallCDN := 0
	for i := range c.Pages {
		p := &c.Pages[i]
		st.TotalResources += len(p.Resources)
		nCDN := 0
		for j := range p.Resources {
			if p.Resources[j].Provider() != "" {
				nCDN++
				if p.Resources[j].Size < 20_000 {
					smallCDN++
				}
			}
		}
		st.CDNResources += nCDN
		if float64(nCDN) > 0.5*float64(len(p.Resources)) {
			st.PagesOverHalfCDN++
		}
		provs := p.Providers()
		st.PagesWithKProviders[len(provs)]++
		if len(provs) >= 2 {
			st.AtLeastTwoProviders++
		}
		for _, prov := range provs {
			st.ProviderPresence[prov]++
		}
	}
	n := float64(len(c.Pages))
	if n > 0 {
		st.PagesOverHalfCDN /= n
		st.AtLeastTwoProviders /= n
		for k := range st.ProviderPresence {
			st.ProviderPresence[k] /= n
		}
	}
	if st.TotalResources > 0 {
		st.CDNFraction = float64(st.CDNResources) / float64(st.TotalResources)
	}
	if st.CDNResources > 0 {
		st.SmallResources = float64(smallCDN) / float64(st.CDNResources)
	}
	h3 := 0
	for _, ok := range c.H3Support {
		if ok {
			h3++
		}
	}
	if len(c.H3Support) > 0 {
		st.H3Hostnames = float64(h3) / float64(len(c.H3Support))
	}
	return st
}
