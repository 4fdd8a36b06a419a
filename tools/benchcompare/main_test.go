package main

import "testing"

// TestGainRule feeds the claim rule canned pairs.
func TestGainRule(t *testing.T) {
	higher := metric{Name: "ops_per_s", Better: "higher"}
	lower := metric{Name: "op_p90_ms", Better: "lower"}
	base := []float64{100, 102, 98, 101, 99, 100, 103, 97, 100, 101} // quartiles 99.25 and 101: IQR 1.75
	for _, tc := range []struct {
		name   string
		m      metric
		change []float64
		want   bool
	}{
		{"win", higher, []float64{150, 151, 149, 152, 150, 148, 153, 150, 151, 149}, true},
		{"nine of ten", higher, []float64{150, 151, 149, 152, 150, 148, 153, 150, 151, 90}, true},
		{"eight of ten", higher, []float64{150, 151, 149, 152, 150, 148, 153, 150, 90, 90}, false},
		{"inside the IQR", higher, []float64{101, 103, 99, 102, 100, 101, 104, 98, 101, 102}, false},
		{"ties win nothing", higher, base, false},
		{"two ties leave eight wins", higher, []float64{100, 102, 149, 152, 150, 148, 153, 150, 151, 149}, false},
		{"lower is better: win", lower, []float64{50, 51, 49, 52, 50, 48, 53, 47, 50, 51}, true},
		{"lower is better: a rise is no gain", lower, []float64{150, 151, 149, 152, 150, 148, 153, 150, 151, 149}, false},
		{"unpaired", higher, []float64{150}, false},
	} {
		if got, why := gain(tc.m, base, tc.change); got != tc.want {
			t.Errorf("%s: gain = %v, want %v (%s)", tc.name, got, tc.want, why)
		}
	}
}

func TestQuantile(t *testing.T) {
	vs := []float64{4, 1, 3, 2}
	for q, want := range map[float64]float64{0: 1, 0.25: 1.75, 0.5: 2.5, 0.75: 3.25, 1: 4} {
		if got := quantile(vs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := quantile([]float64{1, 2, 3}, 0.5); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
}
