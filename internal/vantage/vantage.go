// Package vantage describes the measurement probes: three CloudLab sites
// (University of Utah, University of Wisconsin-Madison, Clemson
// University), each running three probes (§III-B). A vantage point scales
// path delays — sites sit at different network distances from CDN edges
// and origin servers.
package vantage

// Point is one geographic vantage.
type Point struct {
	// Name identifies the site.
	Name string
	// DelayFactor scales all one-way path delays seen from this site.
	DelayFactor float64
	// ProbesPerSite is how many probe machines run here (paper: 3).
	ProbesPerSite int
}

// Points returns the paper's three CloudLab sites.
func Points() []Point {
	return []Point{
		{Name: "utah", DelayFactor: 1.00, ProbesPerSite: 3},
		{Name: "wisconsin", DelayFactor: 1.15, ProbesPerSite: 3},
		{Name: "clemson", DelayFactor: 1.30, ProbesPerSite: 3},
	}
}
