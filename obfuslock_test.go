package obfuslock

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"obfuslock/internal/netlistgen"
)

func TestFacadeRoundTrip(t *testing.T) {
	c := SmallBenchmarks()[1].Build() // small adder/comparator
	opt := DefaultOptions()
	opt.TargetSkewBits = 8
	opt.Seed = 1
	opt.AllowDirect = false
	res, err := Lock(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Locked.Verify(c); err != nil {
		t.Fatal(err)
	}
	// Locked netlist serializes and parses.
	var buf bytes.Buffer
	if err := WriteBench(&buf, res.Locked.Enc); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBench(&buf)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := Equivalent(res.Locked.Enc, back)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("bench round trip changed the locked netlist")
	}
}

func TestFacadeAttackAndPPA(t *testing.T) {
	c := SmallBenchmarks()[1].Build()
	opt := DefaultOptions()
	opt.TargetSkewBits = 8
	opt.Seed = 2
	opt.AllowDirect = false
	res, err := Lock(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	aopt := DefaultAttackOptions()
	aopt.MaxIterations = 30
	satAttack, ok := AttackNamed("sat")
	if !ok {
		t.Fatal("sat attack missing from registry")
	}
	r := satAttack.Run(context.Background(), res.Locked, NewOracle(c), aopt)
	if r.Exact {
		t.Fatalf("8-bit lock fell in %d iterations", r.Iterations)
	}
	ov := ComparePPA(AnalyzePPA(c, 8, 1), AnalyzePPA(res.Locked.Enc, 8, 1))
	if ov.AreaPct < 0 {
		t.Fatalf("negative area overhead: %+v", ov)
	}
}

func TestFacadeBaselines(t *testing.T) {
	c := SmallBenchmarks()[2].Build() // small multiplier
	for name, opt := range map[string]SchemeOptions{
		"rll":     {KeyBits: 8, Seed: 1},
		"sarlock": {ProtWidth: 8, Seed: 1},
		"antisat": {ProtWidth: 6, Seed: 1},
		"ttlock":  {ProtWidth: 8, Seed: 1},
		"sfll-hd": {ProtWidth: 8, HammingDistance: 1, Seed: 1},
	} {
		l, err := LockWith(context.Background(), name, c, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := l.Verify(c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestFacadeSkewness(t *testing.T) {
	c := NewCircuit()
	lits := make([]Lit, 0)
	_ = lits
	in := c.AddInputs(12)
	c.AddOutput(c.AndN(in...), "f")
	bits := SkewnessBits(c, 0, 1)
	if bits < 9 || bits > 15 {
		t.Fatalf("AND12 skewness = %.1f bits, want ~12", bits)
	}
}

func TestBenchmarksCatalog(t *testing.T) {
	names := []string{}
	for _, b := range Benchmarks() {
		names = append(names, b.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"s9234", "c7552", "c6288", "max", "square"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("catalog missing %s: %v", want, names)
		}
	}
}

// TestVerifyDecidesRLLOnB14 pins the equivalence checker on a hard pair: a
// 16-bit RLL lock of b14-s. The stored key must be proven correct, and a
// one-bit-flipped key refuted, within a 100k-conflict budget. A flat miter
// of the two circuits exhausts that budget undecided; the swept check
// merges the shared logic first and needs a few dozen conflicts.
func TestVerifyDecidesRLLOnB14(t *testing.T) {
	ctx := context.Background()
	c := suiteByName("b14-s")[0].Build()
	l, err := LockWith(ctx, "rll", c, SchemeOptions{KeyBits: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultCECOptions()
	opt.Budget.Conflicts = 100_000
	if err := l.VerifyWith(ctx, c, opt); err != nil {
		t.Fatalf("stored key: %v", err)
	}
	wrong := append([]bool(nil), l.Key...)
	wrong[0] = !wrong[0]
	ok, err := l.VerifyKeyWith(ctx, c, wrong, opt)
	if err != nil {
		t.Fatalf("flipped key: %v", err)
	}
	if ok {
		t.Fatal("flipped key verified as correct")
	}
}

// TestPortfolioReportsWork pins the registry portfolio's result: the work
// counters sum over every racer, and a race that ran out of budget
// without a winner reports TimedOut rather than a plain failure.
func TestPortfolioReportsWork(t *testing.T) {
	ctx := context.Background()
	portfolio, ok := AttackNamed("portfolio")
	if !ok {
		t.Fatal("portfolio attack missing from registry")
	}
	c := netlistgen.Multiplier(4)
	l, err := LockWith(ctx, "sarlock", c, SchemeOptions{ProtWidth: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := portfolio.Run(ctx, l, NewOracle(c), DefaultAttackOptions())
	if r.Key == nil || !r.Exact || r.TimedOut {
		t.Fatalf("6-bit SARLock not cracked: %+v", r)
	}
	if r.Queries <= 0 || r.Iterations <= 0 || r.SolverStats.Propagations <= 0 {
		t.Fatalf("cracked race reports no work: queries=%d iterations=%d solver=%+v",
			r.Queries, r.Iterations, r.SolverStats)
	}

	// A 14-bit SARLock needs thousands of DIPs: out of reach of either
	// budget below.
	big := netlistgen.Multiplier(8)
	hard, err := LockWith(ctx, "sarlock", big, SchemeOptions{ProtWidth: 14, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithCancel(ctx)
	cancel()
	short := DefaultAttackOptions()
	short.Timeout = time.Nanosecond
	for name, run := range map[string]func() AttackResult{
		"expired-context": func() AttackResult {
			return portfolio.Run(expired, hard, NewOracle(big), DefaultAttackOptions())
		},
		"1ns-timeout": func() AttackResult {
			return portfolio.Run(ctx, hard, NewOracle(big), short)
		},
	} {
		if r := run(); !r.TimedOut || r.Key != nil || r.Exact {
			t.Errorf("%s: want TimedOut and no key, got %+v", name, r)
		}
	}
}
