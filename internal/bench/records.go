package bench

import "obfuslock/internal/sat"

// Record is one row of the BENCH_*.json artifacts the benchmark harness
// emits (BENCH_sat.json, BENCH_attack.json): wall time and heap
// allocations per op, the cumulative SAT-solver work behind them, and —
// for the attack benchmarks — the oracle-query and DIP-iteration counts
// that make equal-work comparisons honest. All BENCH files share this
// one type so their schemas cannot drift apart; fields a given
// benchmark does not measure are simply omitted.
type Record struct {
	NsPerOp     int64     `json:"ns_per_op"`
	AllocsPerOp int64     `json:"allocs_per_op"`
	Queries     int       `json:"queries,omitempty"`
	Iterations  int       `json:"iterations,omitempty"`
	Solver      sat.Stats `json:"solver"`
}
