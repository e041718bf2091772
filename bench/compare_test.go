package main

import "testing"

func TestJudge(t *testing.T) {
	lat := metricDef{name: "get_p50_us", unit: "us", better: lower, bound: 0.10}
	tput := metricDef{name: "ops_per_s", unit: "1/s", better: higher, bound: 0.10}
	setup := metricDef{name: "setup_s", unit: "s", better: lower, bound: 0.25}
	steady := func(v float64) []float64 { return []float64{v, v * 1.01, v * 0.99, v * 1.005, v * 0.995} }
	cases := []struct {
		name     string
		def      metricDef
		old, new []float64
		want     string
	}{
		{"latency unchanged", lat, steady(100), steady(104), verdictOK},
		{"latency worse", lat, steady(100), steady(115), verdictRegression},
		{"latency better", lat, steady(100), steady(80), verdictImproved},
		{"throughput lower is worse", tput, steady(1000), steady(850), verdictRegression},
		{"throughput higher is better", tput, steady(1000), steady(1200), verdictImproved},
		{"noisy side is unresolved", lat, []float64{80, 100, 120, 90, 115}, steady(130), verdictUnresolved},
		{"set-up within absolute slack", setup, steady(0.05), steady(0.09), verdictOK},
		{"set-up spread within absolute slack", setup, []float64{0.03, 0.05, 0.04}, steady(0.045), verdictOK},
		{"set-up beyond both bounds", setup, steady(1.0), steady(1.4), verdictRegression},
		{"single runs compare medians", lat, []float64{100}, []float64{120}, verdictRegression},
	}
	for _, c := range cases {
		if got := judge(c.def, c.old, c.new).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(v), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one run = %v, want 0", got)
	}
}
