package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"time"

	"obfuslock"
	"obfuslock/internal/aig"
	"obfuslock/internal/bench"
	"obfuslock/internal/cnf"
	"obfuslock/internal/locking"
	"obfuslock/internal/sat"
	"obfuslock/internal/techmap"
)

// cellDeadline guards one attack cell. Cells are bounded by
// MaxIterations, so both commits of a comparison do the same oracle
// work; the deadline only catches a hang, and a cell that misses it
// counts as failed.
const cellDeadline = 60 * time.Second

// attackTarget is one locked design built during set-up.
type attackTarget struct {
	circuit string
	scheme  string
	orig    *aig.AIG
	locked  *obfuslock.Locked
	// effBits and areaPct are the ObfusLock targets' quality (NaN for
	// the baselines).
	effBits, areaPct float64
}

// attackCell is one attack on one target.
type attackCell struct {
	target  int
	attack  string
	maxIter int
}

// targetSpec describes a target before it is built: the circuit, the
// scheme, and for baselines the scheme parameters. "obfuslock" targets
// are LockContext at skew 8.
type targetSpec struct {
	circuit string
	scheme  string
	opts    obfuslock.SchemeOptions
	cells   []attackCell // target index filled in at set-up
}

// attackSpecs is the attack mix. DIP-heavy cells attack point-function
// baselines whose protected width equals the DIP count (12-bit SARLock
// on c6288-s needs 4095 DIPs); solve-heavy cells attack random logic
// locking on the control circuits, sized down so a cell takes about a
// second; the ObfusLock targets are iteration-capped SAT and AppSAT runs
// that cannot finish (an 8-bit skewed lock is built to resist them).
var attackSpecs = []targetSpec{
	{circuit: "c6288-s", scheme: "sarlock", opts: obfuslock.SchemeOptions{ProtWidth: 12},
		cells: []attackCell{{attack: "sat", maxIter: 4096}, {attack: "appsat", maxIter: 256}}},
	{circuit: "c6288-s", scheme: "antisat", opts: obfuslock.SchemeOptions{ProtWidth: 11},
		cells: []attackCell{{attack: "sat", maxIter: 2048}}},
	{circuit: "square-s", scheme: "sarlock", opts: obfuslock.SchemeOptions{ProtWidth: 11},
		cells: []attackCell{{attack: "sat", maxIter: 2048}}},
	{circuit: "square-s", scheme: "antisat", opts: obfuslock.SchemeOptions{ProtWidth: 11},
		cells: []attackCell{{attack: "sat", maxIter: 2048}}},
	{circuit: "square-s", scheme: "ttlock", opts: obfuslock.SchemeOptions{ProtWidth: 10},
		cells: []attackCell{{attack: "sat", maxIter: 512}}},
	{circuit: "max-s", scheme: "sfll-hd", opts: obfuslock.SchemeOptions{ProtWidth: 10, HammingDistance: 2},
		cells: []attackCell{{attack: "sat", maxIter: 128}}},
	{circuit: "s9234-s", scheme: "rll", opts: obfuslock.SchemeOptions{KeyBits: 16},
		cells: []attackCell{{attack: "sat", maxIter: 64}, {attack: "appsat", maxIter: 64}}},
	{circuit: "c7552-s", scheme: "obfuslock",
		cells: []attackCell{{attack: "sat", maxIter: 48}, {attack: "appsat", maxIter: 48}}},
	{circuit: "max-s", scheme: "obfuslock",
		cells: []attackCell{{attack: "sat", maxIter: 48}, {attack: "appsat", maxIter: 48}}},
}

// attackSets is the number of target sets built from one workload seed.
// Pass p attacks set p mod attackSets, so one run averages the cost of
// several independently seeded targets of every kind.
const attackSets = 6

// attackWorkload runs AttackNamed("sat") and AttackNamed("appsat")
// against targets built during set-up. A set repeats the same cells with
// the same attack seeds whenever a pass comes back to it, so those
// passes repeat identical oracle work.
type attackWorkload struct {
	seed    int64
	targets []attackTarget
	cells   []attackCell
	sets    [][]int // cell indices of each target set
}

func (w *attackWorkload) tailPct() float64 { return 75 }

func (w *attackWorkload) setup(seed int64) (string, error) {
	w.seed = seed
	w.targets, w.cells = nil, nil
	circuits := map[string]*aig.AIG{}
	for _, b := range obfuslock.SmallBenchmarks() {
		circuits[b.Name] = b.Build()
	}
	h := sha256.New()
	w.sets = make([][]int, attackSets)
	for k := 0; k < attackSets*len(attackSpecs); k++ {
		ts := attackSpecs[k%len(attackSpecs)]
		orig := circuits[ts.circuit]
		if orig == nil {
			return "", fmt.Errorf("no small benchmark %q", ts.circuit)
		}
		t := attackTarget{circuit: ts.circuit, scheme: ts.scheme, orig: orig, effBits: math.NaN(), areaPct: math.NaN()}
		tseed := obfuslock.DeriveSeed(seed, k)
		if ts.scheme == "obfuslock" {
			opt := obfuslock.DefaultOptions()
			opt.TargetSkewBits = lockSkewBits
			opt.Seed = tseed
			ctx, cancel := context.WithTimeout(context.Background(), lockDeadline)
			r, err := obfuslock.LockContext(ctx, orig, opt)
			cancel()
			if err != nil {
				return "", fmt.Errorf("locking target %s: %w", ts.circuit, err)
			}
			t.locked, t.effBits = r.Locked, r.Report.EffectiveBits
			t.areaPct = techmap.Compare(techmap.Analyze(orig, ppaWords, tseed), techmap.Analyze(r.Locked.Enc, ppaWords, tseed)).AreaPct
		} else {
			opts := ts.opts
			opts.Seed = tseed
			l, err := obfuslock.LockWith(context.Background(), ts.scheme, orig, opts)
			if err != nil {
				return "", fmt.Errorf("locking target %s/%s: %w", ts.circuit, ts.scheme, err)
			}
			t.locked = l
		}
		fmt.Fprintf(h, "%s %s key=%v\n", ts.circuit, ts.scheme, t.locked.Key)
		if err := bench.Write(h, t.locked.Enc); err != nil {
			return "", err
		}
		w.targets = append(w.targets, t)
		set := k / len(attackSpecs)
		for _, c := range ts.cells {
			c.target = len(w.targets) - 1
			w.sets[set] = append(w.sets[set], len(w.cells))
			w.cells = append(w.cells, c)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// cellRun is what one attack cell produced, kept to check that a pass
// that comes back to a target set reproduces the set's first transcript.
type cellRun struct {
	key                 string
	exact               bool
	iterations, queries int
}

func (w *attackWorkload) measure(seconds float64, rec *recorder) *measurement {
	m := newMeasurement()
	tr := rec.tracer()
	first := make([]*cellRun, len(w.cells))
	var queries, iterations, exact, finished int
	var wall float64
	start := time.Now()
	for pass := 0; time.Since(start).Seconds() < seconds; pass++ {
		for _, ci := range w.sets[pass%attackSets] {
			c := w.cells[ci]
			t := w.targets[c.target]
			a, _ := obfuslock.AttackNamed(c.attack)
			opt := obfuslock.DefaultAttackOptions()
			opt.MaxIterations = c.maxIter
			opt.Seed = obfuslock.DeriveSeed(w.seed, 1000+ci)
			opt.SatWorkers = 1
			opt.Trace = tr
			ctx, cancel := context.WithTimeout(context.Background(), cellDeadline)
			end := rec.span("attacks.run")
			c0 := cpuSeconds()
			r := a.Run(ctx, t.locked, obfuslock.NewOracle(t.orig), opt)
			cpu := cpuSeconds() - c0
			end()
			late := ctx.Err() != nil
			cancel()
			what := fmt.Sprintf("%s on %s/%s", c.attack, t.circuit, t.scheme)
			if late {
				m.tally.add(missedDeadline, fmt.Sprintf("%s: missed the %v deadline", what, cellDeadline))
				continue
			}
			m.opSec = append(m.opSec, cpu)
			wall += r.Runtime.Seconds()
			queries += r.Queries
			iterations += r.Iterations
			finished++
			got := &cellRun{key: fmt.Sprint(r.Key), exact: r.Exact, iterations: r.Iterations, queries: r.Queries}
			if first[ci] == nil {
				first[ci] = got
			} else if *first[ci] != *got {
				m.tally.add(wrongOutput, fmt.Sprintf("%s: pass %d differs from the set's first pass (%+v vs %+v)", what, pass, *got, *first[ci]))
				continue
			}
			if r.Exact {
				exact++
				// An exact key must restore the circuit.
				okKey, err := t.locked.VerifyKey(t.orig, r.Key)
				if err != nil || !okKey {
					m.tally.add(wrongOutput, fmt.Sprintf("%s: exact key fails VerifyKey (err %v)", what, err))
					continue
				}
			}
			m.tally.add(ok, "")
		}
		m.passes++
	}
	if busy := sum(m.opSec); busy > 0 {
		m.rate = float64(queries) / busy
	}
	var eff, area []float64
	for _, t := range w.targets {
		if !math.IsNaN(t.effBits) {
			eff = append(eff, t.effBits)
			area = append(area, t.areaPct)
		}
	}
	m.perLayer["core.effective_bits"] = median(eff)
	m.perLayer["techmap.area_overhead_pct"] = median(area)
	if rec != nil {
		spanLayerMetrics(rec, m)
		per := 1 / float64(max(m.passes, 1))
		m.perLayer["attacks.iterations"] = float64(iterations) * per
		m.perLayer["attacks.queries"] = float64(queries) * per
		m.perLayer["attacks.wall_s"] = wall * per
		if finished > 0 {
			m.perLayer["attacks.exact_ratio"] = float64(exact) / float64(finished)
		}
		w.probe(rec, m)
	}
	return m
}

// probe times public layer calls on the workload's own targets: the
// attack miter encoding (cnf.Miter over two copies of the locked
// netlist, as the attack builds it) and one 64-pattern bit-parallel
// key-cone simulation per target.
func (w *attackWorkload) probe(rec *recorder, m *measurement) {
	for i, t := range w.targets {
		end := rec.span("cnf.miter")
		cnf.Miter(sat.New(), t.locked.Enc, t.locked.Enc)
		end()
		xs := make([][]bool, 64)
		for j := range xs {
			xs[j] = make([]bool, t.locked.NumInputs)
			s := uint64(obfuslock.DeriveSeed(w.seed, 2000+64*i+j))
			for b := range xs[j] {
				xs[j][b] = s>>(uint(b)%64)&1 == 1
			}
		}
		end = rec.span("locking.keycone_sim")
		locking.NewKeyCone(t.locked.Enc, t.locked.NumInputs).Simulate(xs)
		end()
	}
	m.perLayer["cnf.miter_s"] = rec.seconds(benchPrefix + "cnf.miter")
	m.perLayer["locking.keycone_sim_s"] = rec.seconds(benchPrefix + "locking.keycone_sim")
}
