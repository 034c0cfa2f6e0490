package main

import (
	"sort"
	"strings"
	"sync"
	"time"

	"obfuslock/internal/obs"
)

// benchPrefix marks the benchmark's own spans. A bench span is named
// "pb/<layer>.<call>": it wraps one call into <layer>.
const benchPrefix = "pb/"

// spanRec is one finished span.
type spanRec struct {
	id, parent uint64
	name       string
	start      time.Time
	dur        time.Duration
	fields     map[string]any
	// foreign spans come from tracers the benchmark does not own (the
	// service's per-job tracers); their IDs are not unique, so they
	// count in per-name totals but stay out of the self-time tree.
	foreign bool
}

// recorder is an in-memory obs.Sink. It keeps every finished span and
// the run's metric registry, and is read once the run ends.
type recorder struct {
	mu    sync.Mutex
	spans []spanRec
	tr    *obs.Tracer
}

func newRecorder() *recorder {
	r := &recorder{}
	r.tr = obs.New(r)
	return r
}

// span opens a bench span around one call into a layer; call the
// returned function when the call returns.
func (r *recorder) span(layerCall string) func() {
	if r == nil {
		return func() {}
	}
	sp := r.tr.Span(benchPrefix + layerCall)
	return func() { sp.End() }
}

func (r *recorder) SpanStart(obs.SpanData) {}

func (r *recorder) SpanEnd(sd obs.SpanData) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, spanRec{id: sd.ID, parent: sd.Parent, name: sd.Name, start: sd.Start, dur: sd.Duration, fields: fieldMap(sd.Fields)})
}

func fieldMap(fs []obs.Field) map[string]any {
	if len(fs) == 0 {
		return nil
	}
	m := make(map[string]any, len(fs))
	for _, f := range fs {
		m[f.Key] = f.Value()
	}
	return m
}

// add records a span the benchmark timed itself, as a root of the
// self-time tree (used where calls overlap, so no stack applies).
func (r *recorder) add(layerCall string, start time.Time, dur time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, spanRec{name: benchPrefix + layerCall, start: start, dur: dur})
}

// foreignSink returns a sink for the service's per-job tracers: their
// finished spans are kept as foreign records.
func (r *recorder) foreignSink() obs.Sink { return foreignSink{r} }

type foreignSink struct{ r *recorder }

func (f foreignSink) SpanStart(obs.SpanData) {}
func (f foreignSink) SpanEnd(sd obs.SpanData) {
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	f.r.spans = append(f.r.spans, spanRec{name: sd.Name, start: sd.Start, dur: sd.Duration, fields: fieldMap(sd.Fields), foreign: true})
}
func (f foreignSink) Event(uint64, string, time.Time, []obs.Field) {}
func (f foreignSink) Metric(obs.MetricSnapshot)                    {}

func (r *recorder) Event(uint64, string, time.Time, []obs.Field) {}
func (r *recorder) Metric(obs.MetricSnapshot)                    {}

// histogram returns the named histogram's snapshot (zero if absent).
func (r *recorder) histogram(name string) obs.MetricSnapshot {
	for _, m := range r.tr.Metrics() {
		if m.Name == name {
			return m
		}
	}
	return obs.MetricSnapshot{}
}

// named returns the finished spans with the given name.
func (r *recorder) named(name string) []spanRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []spanRec
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// seconds sums the durations of the named spans.
func (r *recorder) seconds(name string) float64 {
	t := 0.0
	for _, s := range r.named(name) {
		t += s.dur.Seconds()
	}
	return t
}

// layers are the rows of the self-time table, in print order.
var layers = []string{"core", "rewrite", "cec", "fraig", "sat", "attacks", "locking", "cnf", "count", "skew", "techmap", "bench", "service", "other"}

// layerOf maps a span name to its layer: bench spans name it, program
// spans by their prefix.
func layerOf(name string) string {
	if rest, ok := strings.CutPrefix(name, benchPrefix); ok {
		layer, _, _ := strings.Cut(rest, ".")
		return layer
	}
	switch {
	case name == "lock.rewrite":
		return "rewrite"
	case name == "lock" || strings.HasPrefix(name, "lock."):
		return "core"
	case strings.HasPrefix(name, "cec."):
		return "cec"
	case strings.HasPrefix(name, "fraig."):
		return "fraig"
	case strings.HasPrefix(name, "sat."):
		return "sat"
	case strings.HasPrefix(name, "attack."):
		return "attacks"
	}
	return "other"
}

// selfTime returns, per layer, the summed self time of its spans: a
// span's duration minus the part of its interval its children cover.
func (r *recorder) selfTime() map[string]float64 {
	r.mu.Lock()
	var spans []spanRec
	for _, s := range r.spans {
		if !s.foreign {
			spans = append(spans, s)
		}
	}
	r.mu.Unlock()
	nestByTime(spans)
	children := map[uint64][]int{}
	for i, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		var ivs [][2]time.Time
		end := s.start.Add(s.dur)
		for _, ci := range children[s.id] {
			c := spans[ci]
			lo, hi := c.start, c.start.Add(c.dur)
			if lo.Before(s.start) {
				lo = s.start
			}
			if hi.After(end) {
				hi = end
			}
			if hi.After(lo) {
				ivs = append(ivs, [2]time.Time{lo, hi})
			}
		}
		out[layerOf(s.name)] += (s.dur - covered(ivs)).Seconds()
	}
	return out
}

// nestByTime gives every root span a parent: the innermost span whose
// interval contains it. The benchmark's own spans are roots, and so are
// the program's spans opened from the tracer rather than from an
// enclosing span (cec.find_node inside a lock, sat.simplify inside an
// attack), so nesting by time links the benchmark's call sites to the
// program's spans. Spans recorded with add have no ID and stay roots.
func nestByTime(spans []spanRec) {
	var order []int
	for i, s := range spans {
		if s.id != 0 {
			order = append(order, i)
		}
	}
	// Outer spans first: earlier start, then longer duration.
	sort.Slice(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if !sa.start.Equal(sb.start) {
			return sa.start.Before(sb.start)
		}
		return sa.dur > sb.dur
	})
	var open []int
	for _, i := range order {
		s := spans[i]
		for len(open) > 0 {
			o := spans[open[len(open)-1]]
			if !s.start.Add(s.dur).After(o.start.Add(o.dur)) {
				break
			}
			open = open[:len(open)-1]
		}
		if s.parent == 0 && len(open) > 0 {
			spans[i].parent = spans[open[len(open)-1]].id
		}
		open = append(open, i)
	}
}

// covered is the total length of the union of the intervals.
func covered(ivs [][2]time.Time) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0].Before(ivs[j][0]) })
	var total time.Duration
	var curLo, curHi time.Time
	for i, iv := range ivs {
		if i == 0 || iv[0].After(curHi) {
			total += curHi.Sub(curLo)
			curLo, curHi = iv[0], iv[1]
			continue
		}
		if iv[1].After(curHi) {
			curHi = iv[1]
		}
	}
	total += curHi.Sub(curLo)
	return total
}

// tracer returns the recorder's tracer (nil, and so disabled, for a nil
// recorder).
func (r *recorder) tracer() *obs.Tracer {
	if r == nil {
		return nil
	}
	return r.tr
}

// perLayerUnits lists the per-layer metrics every traced run reports;
// layers a workload does not exercise read 0.
var perLayerUnits = map[string]string{
	"cec.find_node_s":           "s",
	"cec.find_node_sat_queries": "count",
	"cec.find_node_found_ratio": "ratio",
	"core.blend_attempts":       "count",
	"core.build_l_s":            "s",
	"core.lock_wall_s":          "s",
	"core.effective_bits":       "bits",
	"rewrite.rewrite_s":         "s",
	"sat.conflicts":             "count",
	"sat.propagations":          "count",
	"sat.props_per_s":           "1/s",
	"sat.simplify_s":            "s",
	"attacks.oracle_s":          "s",
	"attacks.iterations":        "count",
	"attacks.queries":           "count",
	"attacks.exact_ratio":       "ratio",
	"attacks.wall_s":            "s",
	"locking.keycone_sim_s":     "s",
	"cnf.miter_s":               "s",
	"service.queue_wait_ms_p99": "ms",
	"service.run_ms.lock":       "ms",
	"service.run_ms.attack":     "ms",
	"service.run_ms.cec":        "ms",
	"service.run_ms.count":      "ms",
	"service.run_ms.sample":     "ms",
	"service.submit_ms_p50":     "ms",
	"service.rejected_ratio":    "ratio",
	"gen.lag_ms_max":            "ms",
	"bench.parse_ms":            "ms",
	"bench.write_ms":            "ms",
	"cec.verify_s":              "s",
	"fraig.sweep_s":             "s",
	"techmap.ppa_s":             "s",
	"techmap.area_overhead_pct": "%",
	"trace.overhead_pct":        "%",
}

// spanLayerMetrics derives the per-layer metrics of the lock and attack
// workloads from the traced half: program spans and the benchmark's own
// spans, totalled per pass over the workload's operation list.
func spanLayerMetrics(rec *recorder, m *measurement) {
	per := 1 / float64(max(m.passes, 1))
	set := func(k string, v float64) { m.perLayer[k] = v }

	finds := rec.named("cec.find_node")
	var queries, found float64
	for _, s := range finds {
		if q, ok := s.fields["sat_queries"].(int64); ok {
			queries += float64(q)
		}
		if f, ok := s.fields["found"].(bool); ok && f {
			found++
		}
	}
	set("cec.find_node_s", rec.seconds("cec.find_node")*per)
	set("cec.find_node_sat_queries", queries*per)
	if len(finds) > 0 {
		set("cec.find_node_found_ratio", found/float64(len(finds)))
	}
	if locks := len(rec.named("lock")); locks > 0 {
		set("core.blend_attempts", float64(len(rec.named("lock.blend")))/float64(locks))
	}
	set("core.build_l_s", rec.seconds("lock.build_l")*per)
	set("rewrite.rewrite_s", rec.seconds("lock.rewrite")*per)
	set("sat.simplify_s", rec.seconds("sat.simplify")*per)
	set("fraig.sweep_s", rec.seconds("fraig.sweep")*per)
	set("cec.verify_s", rec.seconds(benchPrefix+"cec.verify")*per)
	set("techmap.ppa_s", rec.seconds(benchPrefix+"techmap.ppa")*per)
	props := rec.histogram("sat.props_per_decision").Sum
	set("sat.conflicts", float64(rec.histogram("sat.conflict_depth").Count)*per)
	set("sat.propagations", props*per)
	if busy := sum(m.opSec); busy > 0 {
		set("sat.props_per_s", props/busy)
	}
	set("attacks.oracle_s", rec.histogram("attack.oracle_us").Sum/1e6*per)
}
