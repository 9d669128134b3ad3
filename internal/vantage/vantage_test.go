package vantage

import "testing"

func TestPoints(t *testing.T) {
	pts := Points()
	if len(pts) != 3 {
		t.Fatalf("%d vantage points, want 3 (CloudLab sites)", len(pts))
	}
	names := map[string]bool{}
	for _, p := range pts {
		if p.DelayFactor <= 0 {
			t.Fatalf("%s: delay factor %v", p.Name, p.DelayFactor)
		}
		if p.ProbesPerSite != 3 {
			t.Fatalf("%s: %d probes, paper ran 3 per site", p.Name, p.ProbesPerSite)
		}
		names[p.Name] = true
	}
	for _, want := range []string{"utah", "wisconsin", "clemson"} {
		if !names[want] {
			t.Fatalf("missing site %s", want)
		}
	}
}
