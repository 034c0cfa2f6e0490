package cec

import (
	"context"
	"math/rand"
	"testing"

	"obfuslock/internal/aig"
	"obfuslock/internal/simp"
)

func randSimpCircuit(rng *rand.Rand, nin, nops, nout int) *aig.AIG {
	g := aig.New()
	lits := g.AddInputs(nin)
	for i := 0; i < nops; i++ {
		pick := func() aig.Lit {
			l := lits[rng.Intn(len(lits))]
			if rng.Intn(2) == 0 {
				l = l.Not()
			}
			return l
		}
		var nl aig.Lit
		switch rng.Intn(3) {
		case 0:
			nl = g.And(pick(), pick())
		case 1:
			nl = g.Xor(pick(), pick())
		default:
			nl = g.Maj(pick(), pick(), pick())
		}
		lits = append(lits, nl)
	}
	for o := 0; o < nout; o++ {
		g.AddOutput(lits[len(lits)-1-o], "o")
	}
	return g
}

// Equivalence verdicts must not depend on the preprocessing configuration,
// and counterexamples found on a simplified solver must still distinguish
// the two circuits (model reconstruction through eliminated variables).
func TestCheckSimpOnOffAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 120; trial++ {
		a := randSimpCircuit(rng, 5+rng.Intn(4), 15+rng.Intn(30), 2)
		var b *aig.AIG
		if rng.Intn(2) == 0 {
			b = a.Copy() // equivalent
		} else {
			b = randSimpCircuit(rng, a.NumInputs(), 15+rng.Intn(30), 2) // almost surely different
		}
		optOn := DefaultOptions()
		optOn.Seed = int64(trial)
		optOff := optOn
		optOff.Simp = simp.Off()
		rOn, err1 := Check(context.Background(), a, b, optOn)
		rOff, err2 := Check(context.Background(), a, b, optOff)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d err: %v %v", trial, err1, err2)
		}
		if rOn.Equivalent != rOff.Equivalent {
			t.Fatalf("trial %d: simp=%v nosimp=%v", trial, rOn.Equivalent, rOff.Equivalent)
		}
		if !rOn.Equivalent && rOn.Counterexample != nil {
			ya, yb := a.Eval(rOn.Counterexample), b.Eval(rOn.Counterexample)
			same := true
			for i := range ya {
				if ya[i] != yb[i] {
					same = false
				}
			}
			if same {
				t.Fatalf("trial %d: counterexample does not distinguish", trial)
			}
		}
	}
}
