package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"time"

	"obfuslock"
	"obfuslock/internal/aig"
	"obfuslock/internal/bench"
	"obfuslock/internal/techmap"
)

const (
	// lockSkewBits is the skewness target of every lock in the lock and
	// attack workloads.
	lockSkewBits = 8
	// lockDeadline bounds one LockContext call. Locks at skew 8 on the
	// small suite take 0.03–25 s; a lock that misses the deadline counts
	// as failed.
	lockDeadline = 90 * time.Second
	// checkDeadline bounds one correctness check.
	checkDeadline = 60 * time.Second
	// ppaWords is the switching-activity pattern count (×64) of every
	// PPA analysis; area does not depend on it.
	ppaWords = 4
)

// lockWorkload runs ObfusLock LockContext at skew 8 on every circuit of
// the small suite, one lock at a time. Pass p locks circuit i with seed
// DeriveSeed(DeriveSeed(seed, p), i), so every pass sees fresh seeds.
type lockWorkload struct {
	seed     int64
	circuits []*aig.AIG
	origPPA  []techmap.Report
}

func (w *lockWorkload) tailPct() float64 { return 50 }

func (w *lockWorkload) setup(seed int64) (string, error) {
	w.seed = seed
	w.circuits, w.origPPA = nil, nil
	h := sha256.New()
	fmt.Fprintf(h, "seed=%d\n", seed)
	for _, b := range obfuslock.SmallBenchmarks() {
		c := b.Build()
		if err := bench.Write(h, c); err != nil {
			return "", fmt.Errorf("writing %s: %w", b.Name, err)
		}
		rep := techmap.Analyze(c, ppaWords, seed)
		fmt.Fprintf(h, "%s area=%v\n", b.Name, rep.AreaUM2)
		w.circuits = append(w.circuits, c)
		w.origPPA = append(w.origPPA, rep)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

func (w *lockWorkload) measure(seconds float64, rec *recorder) *measurement {
	m := newMeasurement()
	tr := rec.tracer()
	var effBits, areaPct []float64
	start := time.Now()
	for pass := 0; time.Since(start).Seconds() < seconds; pass++ {
		for i, c := range w.circuits {
			seed := obfuslock.DeriveSeed(obfuslock.DeriveSeed(w.seed, pass), i)
			opt := obfuslock.DefaultOptions()
			opt.TargetSkewBits = lockSkewBits
			opt.Seed = seed
			opt.Trace = tr
			ctx, cancel := context.WithTimeout(context.Background(), lockDeadline)
			end := rec.span("core.lock")
			t0 := time.Now()
			r, err := obfuslock.LockContext(ctx, c, opt)
			dt := time.Since(t0)
			end()
			cancel()
			what := fmt.Sprintf("lock %s seed %d", c.Name, seed)
			if err != nil {
				if errors.Is(err, context.DeadlineExceeded) {
					m.tally.add(missedDeadline, fmt.Sprintf("%s: missed the %v deadline", what, lockDeadline))
				} else {
					m.tally.add(errored, fmt.Sprintf("%s: %v", what, err))
				}
				continue
			}
			m.opSec = append(m.opSec, dt.Seconds())

			// The correctness check and the quality measurement run off
			// the clock.
			copt := obfuslock.SweepCECOptions()
			copt.Trace = tr
			ctx, cancel = context.WithTimeout(context.Background(), checkDeadline)
			end = rec.span("cec.verify")
			verr := r.Locked.VerifyWith(ctx, c, copt)
			end()
			late := ctx.Err() != nil
			cancel()
			if verr != nil {
				if late {
					m.tally.add(missedDeadline, fmt.Sprintf("%s: check missed the %v deadline", what, checkDeadline))
				} else {
					m.tally.add(wrongOutput, fmt.Sprintf("%s: correct key does not restore the circuit: %v", what, verr))
				}
				continue
			}
			end = rec.span("techmap.ppa")
			rep := techmap.Analyze(r.Locked.Enc, ppaWords, seed)
			end()
			areaPct = append(areaPct, techmap.Compare(w.origPPA[i], rep).AreaPct)
			effBits = append(effBits, r.Report.EffectiveBits)
			m.tally.add(ok, "")
		}
		m.passes++
	}
	m.rate = 1 / geomean(m.opSec)
	m.perLayer["core.effective_bits"] = median(effBits)
	m.perLayer["techmap.area_overhead_pct"] = median(areaPct)
	if rec != nil {
		spanLayerMetrics(rec, m)
		m.perLayer["core.lock_wall_s"] = sum(m.opSec) / float64(max(m.passes, 1))
	}
	return m
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}
