package main

import (
	"testing"
	"time"
)

var epoch = time.Unix(1_700_000_000, 0)

func timeAt(ms int) time.Time { return epoch.Add(durMS(ms)) }

func durMS(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

// TestSeedDeterminism checks that the same workload seed gives
// byte-identical generated inputs and reference results, and that
// another seed gives other inputs.
func TestSeedDeterminism(t *testing.T) {
	for _, w := range []workload{&lockWorkload{}, &attackWorkload{}, &serviceWorkload{}} {
		a, err := w.setup(7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.setup(7)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%T: seed 7 gave two different input sets", w)
		}
		c, err := w.setup(8)
		if err != nil {
			t.Fatal(err)
		}
		if c == a {
			t.Errorf("%T: seeds 7 and 8 gave the same inputs", w)
		}
	}
}

// TestSelfTime checks the self-time rule on a hand-built tree: a bench
// span around a lock whose safety scan the program opened from the
// tracer, so only its time places it under lock.cec.
func TestSelfTime(t *testing.T) {
	r := &recorder{}
	r.spans = []spanRec{
		{id: 1, name: benchPrefix + "core.lock", start: timeAt(0), dur: durMS(100)},
		{id: 2, name: "lock", start: timeAt(10), dur: durMS(80)},
		{id: 4, parent: 2, name: "lock.cec", start: timeAt(15), dur: durMS(60)},
		{id: 3, name: "cec.find_node", start: timeAt(20), dur: durMS(50)},
		{name: "cec.find_node", start: timeAt(0), dur: durMS(999), foreign: true},
	}
	got := r.selfTime()
	want := map[string]time.Duration{"core": durMS(20 + 20 + 10), "cec": durMS(50)}
	for layer, d := range want {
		if diff := got[layer] - d.Seconds(); diff > 1e-9 || diff < -1e-9 {
			t.Errorf("self time of %s = %gs, want %gs", layer, got[layer], d.Seconds())
		}
	}
	if s := r.seconds("cec.find_node"); s < 1.04 || s > 1.06 {
		t.Errorf("per-name total should include foreign spans: %g", s)
	}
}
