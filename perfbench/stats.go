package main

import (
	"math"
	"sort"
)

// tailLadder is the percentile ladder the tail rule climbs, in tenths
// of a percent so the rule's arithmetic is exact.
var tailLadder = []int{500, 750, 900, 990, 999}

// tailPercentile applies the reporting rule: the highest ladder
// percentile that leaves at least ten samples beyond it. With fewer than
// twenty samples no percentile qualifies and the median is reported, so
// the caller must always print the sample count next to it.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if n*(1000-p) >= 10*1000 {
			best = p
		}
	}
	return float64(best) / 10
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (the "exclusive" convention is not needed: the
// rule above keeps ten samples beyond p). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// tally counts attempted and failed operations. Every kind of failure
// the benchmark can observe lands here: errors, missed deadlines,
// refusals, and wrong outputs; wrong outputs additionally clear correct.
type tally struct {
	attempted int
	failed    int
	wrong     int
	refused   int
	late      int
	errored   int
	notes     []string
}

// outcome classifies one finished operation.
type outcome int

const (
	ok outcome = iota
	wrongOutput
	refused
	missedDeadline
	errored
)

func (t *tally) add(o outcome, note string) {
	t.attempted++
	if o == ok {
		return
	}
	t.failed++
	switch o {
	case wrongOutput:
		t.wrong++
	case refused:
		t.refused++
	case missedDeadline:
		t.late++
	default:
		t.errored++
	}
	if note != "" && len(t.notes) < 20 {
		t.notes = append(t.notes, note)
	}
}

func (t *tally) correct() bool { return t.wrong == 0 }

// failedRatio is failed operations out of attempted ones.
func (t *tally) failedRatio() float64 {
	if t.attempted == 0 {
		return 1
	}
	return float64(t.failed) / float64(t.attempted)
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	t.refused += o.refused
	t.late += o.late
	t.errored += o.errored
	for _, n := range o.notes {
		if len(t.notes) < 20 {
			t.notes = append(t.notes, n)
		}
	}
}
