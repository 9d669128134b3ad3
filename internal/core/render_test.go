package core

import (
	"strings"
	"testing"

	"h3cdn/internal/analysis"
)

func TestRenderTable1ContainsAllProviders(t *testing.T) {
	out := RenderTable1(Table1())
	for _, p := range []string{"Cloudflare", "Google", "Fastly", "QUIC.Cloud", "Amazon", "Meta"} {
		if p == "Meta" {
			continue // Meta runs a self-operated CDN; not in our registry
		}
		if !strings.Contains(out, p) {
			t.Fatalf("Table I render missing %s:\n%s", p, out)
		}
	}
	if !strings.Contains(out, "2019") || !strings.Contains(out, "2023") {
		t.Fatalf("Table I render missing release years:\n%s", out)
	}
}

func TestRenderTable2Layout(t *testing.T) {
	out := RenderTable2(ComputeTable2(handDataset()))
	for _, want := range []string{"HTTP/2", "HTTP/3", "Others", "All", "total requests: 3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table II render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderFigure6b(t *testing.T) {
	f := Fig6b{
		ConnectCDF:      []analysis.Point{{X: -1, Y: 0.2}, {X: 10, Y: 1}},
		WaitCDF:         []analysis.Point{{X: -2, Y: 0.6}, {X: 3, Y: 1}},
		ReceiveCDF:      []analysis.Point{{X: 0, Y: 0.5}, {X: 1, Y: 1}},
		MedianConnectMs: 8, MedianWaitMs: -1.5, MedianReceiveMs: 0.1,
	}
	out := RenderFigure6b(f)
	if !strings.Contains(out, "8.00") || !strings.Contains(out, "-1.50") {
		t.Fatalf("Fig 6b render missing medians:\n%s", out)
	}
}

func TestRenderFigure9(t *testing.T) {
	out := RenderFigure9([]Fig9Series{
		{LossRate: 0, Slope: 0.8, Intercept: 10, MedianReductionMs: 40},
		{LossRate: 0.01, Slope: 2.1, Intercept: 50, MedianReductionMs: 160},
	})
	for _, want := range []string{"0.0%", "1.0%", "0.80", "2.10", "40.0", "160.0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig 9 render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderTable3(t *testing.T) {
	out := RenderTable3(Table3{
		High:    Table3Group{Sites: 10, AvgProviders: 4.2, AvgResumed: 100, PLTReductionMs: 110},
		Low:     Table3Group{Sites: 8, AvgProviders: 2.5, AvgResumed: 70, PLTReductionMs: 55},
		Domains: 58,
	})
	for _, want := range []string{"C_H", "C_L", "4.20", "2.50", "110.0", "55.0", "58"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table III render missing %q:\n%s", want, out)
		}
	}
}
