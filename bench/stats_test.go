package bench

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct{ p, want float64 }{{1, 10}, {20, 10}, {21, 20}, {50, 30}, {95, 50}, {100, 50}} {
		if got := Percentile(v, c.p); got != c.want {
			t.Errorf("Percentile(%v, %v) = %v, want %v", v, c.p, got, c.want)
		}
	}
	// 100 samples: p95 is the 95th smallest, with five beyond it.
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	if got := Percentile(hundred, 95); got != 95 {
		t.Errorf("p95 of 1..100 = %v, want 95", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile of nothing = %v, want 0", got)
	}
	if v[0] != 50 {
		t.Error("Percentile reordered its input")
	}
}

func TestMedianOfRounds(t *testing.T) {
	// One disturbed round out of five does not move the reported value.
	if got := Median([]float64{101, 99, 100, 340, 98}); got != 100 {
		t.Errorf("median of five rounds = %v, want 100", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}
