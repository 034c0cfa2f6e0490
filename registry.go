// Registries for the baseline locking schemes and the oracle-guided
// attacks. Callers select by name — CLIs and experiment sweeps route
// through these instead of hand-rolled switch statements, so adding a
// scheme or an attack is one registry entry, not N call sites.
package obfuslock

import (
	"context"
	"fmt"
	"sort"

	"obfuslock/internal/attacks"
	"obfuslock/internal/exec"
	"obfuslock/internal/lockbase"
	"obfuslock/internal/locking"
	"obfuslock/internal/service"
)

// SchemeOptions parameterizes the locking schemes. It is the package's
// single scheme-options vocabulary: LockWith takes it directly and the
// job API (JobSpec.SchemeOptions) carries the very same type over the
// wire, so an in-process call and an HTTP submission describe a lock
// identically. Each scheme reads the fields it needs and ignores the
// rest; zero values fall back to per-scheme defaults. SkewBits applies
// only to the "obfuslock" scheme accepted by RunJob.
type SchemeOptions = service.SchemeOptions

// schemeFunc adapts one baseline to the common registry signature.
type schemeFunc func(c *Circuit, opt SchemeOptions) (*Locked, error)

// schemeRegistry maps scheme names to constructors. Names are the
// lower-case identifiers the CLIs accept.
var schemeRegistry = map[string]schemeFunc{
	"rll": func(c *Circuit, opt SchemeOptions) (*Locked, error) {
		return lockbase.RLL(c, defaultInt(opt.KeyBits, 16), opt.Seed)
	},
	"sarlock": func(c *Circuit, opt SchemeOptions) (*Locked, error) {
		return lockbase.SARLock(c, defaultInt(opt.ProtWidth, 10), opt.Seed)
	},
	"antisat": func(c *Circuit, opt SchemeOptions) (*Locked, error) {
		return lockbase.AntiSAT(c, defaultInt(opt.ProtWidth, 10), opt.Seed)
	},
	"ttlock": func(c *Circuit, opt SchemeOptions) (*Locked, error) {
		return lockbase.TTLock(c, defaultInt(opt.ProtWidth, 10), opt.Seed)
	},
	"sfll-hd": func(c *Circuit, opt SchemeOptions) (*Locked, error) {
		return lockbase.SFLLHD(c, defaultInt(opt.ProtWidth, 10), opt.HammingDistance, opt.Seed)
	},
}

func defaultInt(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}

// Schemes lists the registered baseline locking schemes, sorted by name.
// Every name is accepted by LockWith. (ObfusLock itself is not in the
// list: it is the package's Lock function, with its own Options.)
func Schemes() []string {
	names := make([]string, 0, len(schemeRegistry))
	for name := range schemeRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// LockWith applies the named baseline locking scheme to the circuit.
// Unknown names report an error listing the registry. Cancelling ctx
// before the call starts aborts it; the baselines themselves are fast
// (no SAT solving) and run to completion once started.
func LockWith(ctx context.Context, name string, c *Circuit, opt SchemeOptions) (*Locked, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("obfuslock: lock %s cancelled: %w", name, err)
		}
	}
	fn, ok := schemeRegistry[name]
	if !ok {
		return nil, fmt.Errorf("obfuslock: unknown scheme %q (have %v)", name, Schemes())
	}
	return fn(c, opt)
}

// Attack is one oracle-guided key-recovery attack. Implementations are
// stateless; Run may be called concurrently with distinct oracles.
type Attack interface {
	// Name is the registry identifier ("sat", "appsat", "portfolio").
	Name() string
	// Description is a one-line summary for CLI help text.
	Description() string
	// Run attacks the locked design with query access to the oracle.
	// Cancelling ctx stops the attack within one solver progress
	// interval; opt bounds it (AttackOptions.Timeout, .MaxIterations).
	Run(ctx context.Context, l *Locked, o *Oracle, opt AttackOptions) AttackResult
}

type attackEntry struct {
	name, desc string
	run        func(ctx context.Context, l *Locked, o *Oracle, opt AttackOptions) AttackResult
}

func (a attackEntry) Name() string        { return a.name }
func (a attackEntry) Description() string { return a.desc }
func (a attackEntry) Run(ctx context.Context, l *Locked, o *Oracle, opt AttackOptions) AttackResult {
	return a.run(ctx, l, o, opt)
}

var attackRegistry = []attackEntry{
	{
		name: "sat",
		desc: "oracle-guided SAT attack (Subramanyan et al.): exact key recovery via DIPs",
		run: func(ctx context.Context, l *Locked, o *Oracle, opt AttackOptions) AttackResult {
			return attacks.SATAttack(ctx, l, o, opt)
		},
	},
	{
		name: "appsat",
		desc: "approximate SAT attack (Shamsi et al.): capped DIP loop with random-query settling",
		run: func(ctx context.Context, l *Locked, o *Oracle, opt AttackOptions) AttackResult {
			return attacks.AppSAT(ctx, l, o, opt)
		},
	},
	{
		name: "portfolio",
		desc: "race SAT and AppSAT (plus a reseeded AppSAT); first verified key wins",
		run: func(ctx context.Context, l *Locked, o *Oracle, opt AttackOptions) AttackResult {
			orig := o.Circuit()
			appopt := opt
			appopt.Seed = exec.DeriveSeed(opt.Seed, 1)
			r := attacks.Portfolio(ctx, []attacks.PortfolioVariant{
				{Name: "sat", Attack: "sat", Locked: l, Oracle: locking.NewOracle(orig), Orig: orig, Opt: opt},
				{Name: "appsat", Attack: "appsat", Locked: l, Oracle: locking.NewOracle(orig), Orig: orig, Opt: opt},
				{Name: "appsat-r2", Attack: "appsat", Locked: l, Oracle: locking.NewOracle(orig), Orig: orig, Opt: appopt},
			}, opt.Trace)
			return portfolioResult(r)
		},
	},
}

// portfolioResult folds a portfolio race into one AttackResult. The
// work counters sum over every variant, because that is the oracle and
// solver work the race actually spent. With no winner, the race counts
// as timed out when any variant ran out of budget, so a budget cut-off
// does not read as a failed attack.
func portfolioResult(r attacks.PortfolioResult) AttackResult {
	out := AttackResult{Key: r.Key, Exact: r.Key != nil, Runtime: r.Runtime}
	for _, o := range r.Outcomes {
		out.Iterations += o.Result.Iterations
		out.Queries += o.Result.Queries
		out.SolverStats = out.SolverStats.Add(o.Result.SolverStats)
		out.TimedOut = out.TimedOut || (r.Key == nil && o.Result.TimedOut)
	}
	return out
}

// Attacks lists the registered oracle-guided attacks in registry order.
func Attacks() []Attack {
	out := make([]Attack, len(attackRegistry))
	for i, a := range attackRegistry {
		out[i] = a
	}
	return out
}

// AttackNamed returns the registered attack with the given name.
func AttackNamed(name string) (Attack, bool) {
	for _, a := range attackRegistry {
		if a.name == name {
			return a, true
		}
	}
	return nil, false
}
