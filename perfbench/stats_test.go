package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		got := tailPercentile(tc.n)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		// The rule: at least ten samples lie beyond the reported
		// percentile, whenever any ladder step allows it.
		if beyond := tc.n * (1000 - int(got*10+0.5)) / 1000; tc.n >= 20 && beyond < 10 {
			t.Errorf("tailPercentile(%d) = %g leaves fewer than 10 samples beyond it", tc.n, got)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %g, want 5", got)
	}
	if got := percentile(xs, 25); got != 2 {
		t.Errorf("p25 = %g, want 2", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %g, want 4", got)
	}
}

func TestFailedRatioAccounting(t *testing.T) {
	var ta tally
	ta.add(ok, "")
	ta.add(ok, "")
	ta.add(refused, "HTTP 429")
	ta.add(missedDeadline, "late")
	ta.add(errored, "boom")
	if ta.attempted != 5 || ta.failed != 3 {
		t.Fatalf("attempted=%d failed=%d, want 5 and 3", ta.attempted, ta.failed)
	}
	if ta.refused != 1 || ta.late != 1 || ta.errored != 1 {
		t.Errorf("refused=%d late=%d errored=%d, want 1 each", ta.refused, ta.late, ta.errored)
	}
	if got := ta.failedRatio(); got != 0.6 {
		t.Errorf("failedRatio = %g, want 0.6", got)
	}
	// Refusals, missed deadlines and errors are failures, not wrong
	// outputs: the run stays correct.
	if !ta.correct() {
		t.Error("a run without wrong outputs must stay correct")
	}
	ta.add(wrongOutput, "mismatch")
	if ta.correct() || ta.failed != 4 || ta.attempted != 6 {
		t.Errorf("after a wrong output: correct=%v failed=%d attempted=%d", ta.correct(), ta.failed, ta.attempted)
	}

	var merged tally
	merged.add(ok, "")
	merged.merge(ta)
	if merged.attempted != 7 || merged.failed != 4 || merged.wrong != 1 || merged.correct() {
		t.Errorf("merge: %+v", merged)
	}
	var empty tally
	if empty.failedRatio() != 1 {
		t.Error("a run that attempted nothing must not read as failure-free")
	}
}

func TestCovered(t *testing.T) {
	ivs := [][2]time.Time{{timeAt(0), timeAt(10)}, {timeAt(5), timeAt(15)}, {timeAt(20), timeAt(25)}}
	if got := covered(ivs); got != durMS(20) {
		t.Errorf("covered = %v, want 20ms", got)
	}
	if got := covered(nil); got != 0 {
		t.Errorf("covered(nil) = %v", got)
	}
}
