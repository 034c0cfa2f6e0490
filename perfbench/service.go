package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"obfuslock"
	"obfuslock/internal/bench"
	"obfuslock/internal/obs"
	"obfuslock/internal/service"
	"obfuslock/internal/techmap"
)

const (
	// serviceRate is the fixed offered load in jobs per second: about
	// half the capacity measured at the commit that introduced the
	// benchmark (two workers, this job mix).
	serviceRate = 70.0
	// serviceLimit is the fixed p99 latency limit of the goodput: a job
	// counts toward it when it finished within the limit.
	serviceLimit = 500 * time.Millisecond
	// serviceSpecs is the number of distinct loadgen-mix job specs;
	// serviceLockSpecs c7552-s and serviceMaxSpecs max-s ObfusLock lock
	// specs follow them. The generator cycles through the lists: every
	// serviceLockEvery-th job is an ObfusLock lock, and every
	// serviceMaxEvery-th of those locks max-s. Every result is compared
	// with the serial reference of its spec.
	//
	// The shares put the p99 job latency in the middle of the c7552-s
	// lock jobs (30–110 ms each): the max-s locks (up to 350 ms) fill
	// the top third of a percent, the c7552-s locks the next 1.3%. At
	// the edge of a group of jobs, p99 would jump from run to run with
	// the seed.
	serviceSpecs     = 480
	serviceLockSpecs = 32
	serviceMaxSpecs  = 2
	serviceLockEvery = 60
	serviceMaxEvery  = 5
	// serviceDrain bounds the wait for the last jobs after the generator
	// stops; jobs still unfinished then count as missing their deadline.
	serviceDrain = 60 * time.Second
	// serviceWorkers is the number of workers that run the measured jobs.
	// The server gets one more, which the hold job occupies (see
	// startHold).
	serviceWorkers = 2
	// holdLabel marks the hold job.
	holdLabel = "pb-hold"
)

// serviceJob is one distinct job spec with its serial reference result.
type serviceJob struct {
	kind string
	body []byte // the JSON submission
	want []byte // json.Marshal of the serial RunJob result
}

// serviceWorkload serves an open-loop job stream through an in-process
// service.New server (NewJobRunner, two workers for the measured jobs) on a loopback
// listener, over at most two keep-alive connections.
type serviceWorkload struct {
	seed     int64
	jobs     []serviceJob
	circuits []string  // distinct .bench texts the jobs carry
	areaPct  []float64 // area overhead of each ObfusLock lock job
}

func (w *serviceWorkload) tailPct() float64 { return 99 }

// setup builds the job mix of cmd/loadgen (lock, attack, cec, count and
// sample jobs over the small suite) plus a small share of ObfusLock lock
// jobs on c7552-s and max-s, and computes every job's reference result
// serially through RunJob.
func (w *serviceWorkload) setup(seed int64) (string, error) {
	w.seed = seed
	w.jobs, w.circuits, w.areaPct = nil, nil, nil
	suite := obfuslock.SmallBenchmarks()
	texts := map[string]string{}
	var names, narrow []string
	for _, b := range suite {
		c := b.Build()
		var sb strings.Builder
		if err := bench.Write(&sb, c); err != nil {
			return "", err
		}
		texts[b.Name] = sb.String()
		names = append(names, b.Name)
		w.circuits = append(w.circuits, sb.String())
		// Approximate model counting is exponential in input width, so
		// count jobs stay on the narrow circuits (as in cmd/loadgen).
		if c.NumInputs() <= 16 {
			narrow = append(narrow, b.Name)
		}
	}
	schemes := obfuslock.Schemes()
	h := sha256.New()
	for i := 0; i < serviceSpecs+serviceLockSpecs+serviceMaxSpecs; i++ {
		s := obfuslock.DeriveSeed(seed, i)
		name := names[i%len(names)]
		spec := obfuslock.JobSpec{Schema: obfuslock.JobSchemaVersion, Label: fmt.Sprintf("pb-%03d", i)}
		baseline := obfuslock.SchemeOptions{KeyBits: 8, ProtWidth: 6, HammingDistance: 1, Seed: s}
		switch {
		case i >= serviceSpecs: // ObfusLock lock jobs: 20–700 ms, head-of-line blocking
			spec.Kind = "lock"
			spec.Scheme = "obfuslock"
			name = "c7552-s"
			if i >= serviceSpecs+serviceLockSpecs {
				name = "max-s"
			}
			spec.Circuit = texts[name]
			spec.SchemeOptions = &obfuslock.SchemeOptions{SkewBits: lockSkewBits, Seed: s}
		case i%5 == 0 || i%5 == 1:
			spec.Kind = "lock"
			spec.Scheme = schemes[i%len(schemes)]
			spec.Circuit = texts[name]
			spec.SchemeOptions = &baseline
		case i%5 == 2:
			l, err := obfuslock.LockWith(context.Background(), schemes[i%len(schemes)], mustRead(texts[name]), baseline)
			if err != nil {
				return "", err
			}
			var sb strings.Builder
			if err := bench.Write(&sb, l.Enc); err != nil {
				return "", err
			}
			spec.Kind = "attack"
			spec.Circuit = sb.String()
			spec.Oracle = texts[name]
			spec.Attack = "sat"
			spec.AttackOptions = &obfuslock.JobAttackOptions{MaxIterations: 16, Seed: s}
		case i%5 == 3:
			spec.Kind = "cec"
			spec.Circuit = texts[name]
			spec.Oracle = texts[name]
			spec.Seed = s
		case i%2 == 0:
			spec.Kind = "count"
			spec.Circuit = texts[narrow[i%len(narrow)]]
			spec.Seed = s
		default:
			spec.Kind = "sample"
			spec.Circuit = texts[name]
			spec.Seed = s
		}
		res, err := obfuslock.RunJob(context.Background(), spec, obfuslock.JobRuntime{})
		if err != nil {
			return "", fmt.Errorf("reference job %d (%s): %w", i, spec.Kind, err)
		}
		want, err := json.Marshal(res)
		if err != nil {
			return "", err
		}
		body, err := json.Marshal(spec)
		if err != nil {
			return "", err
		}
		if spec.Scheme == "obfuslock" {
			locked := mustRead(res.Locked)
			orig := mustRead(texts[name])
			w.areaPct = append(w.areaPct, techmap.Compare(techmap.Analyze(orig, ppaWords, s), techmap.Analyze(locked, ppaWords, s)).AreaPct)
		}
		w.jobs = append(w.jobs, serviceJob{kind: spec.Kind, body: body, want: want})
		h.Write(body)
		h.Write(want)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

func mustRead(text string) *obfuslock.Circuit {
	c, err := bench.Read(strings.NewReader(text))
	if err != nil {
		panic(fmt.Sprintf("perfbench: generated netlist does not parse: %v", err))
	}
	return c
}

// jobRecord is the client-side view of one submitted job.
type jobRecord struct {
	kind      string
	due       time.Time
	outcome   outcome
	note      string
	latency   time.Duration // from due time to the envelope read
	doneAt    time.Time     // when the envelope was read
	submit    time.Duration // POST round trip
	queueWait time.Duration // created_at -> started_at
	run       time.Duration // started_at -> finished_at
}

// envelope is the client-side view of a job Status; Result stays raw so
// the comparison sees the server's exact bytes.
type envelope struct {
	ID         string          `json:"id"`
	State      string          `json:"state"`
	CreatedAt  string          `json:"created_at"`
	StartedAt  string          `json:"started_at"`
	FinishedAt string          `json:"finished_at"`
	Result     json.RawMessage `json:"result"`
	Error      *service.Error  `json:"error"`
}

func (w *serviceWorkload) measure(seconds float64, rec *recorder) *measurement {
	m := newMeasurement()
	cfg := service.Config{Runner: holdRunner(obfuslock.NewJobRunner(obfuslock.JobRuntime{})), Workers: serviceWorkers + 1, QueueDepth: 1024}
	if rec != nil {
		cfg.Registry = rec.tracer().Registry()
		cfg.ExtraSink = rec.foreignSink()
	}
	srv := service.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.tally.add(errored, fmt.Sprintf("listen: %v", err))
		return m
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	tp := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	client := &http.Client{Transport: tp}
	base := "http://" + ln.Addr().String()
	n := int(serviceRate * seconds)
	hold, err := w.startHold(client, base, srv)
	if err != nil {
		m.tally.add(errored, err.Error())
		n = 0
	}
	recs := make([]jobRecord, n)
	var lagMax time.Duration
	var wg sync.WaitGroup
	giveUp, stop := context.WithTimeout(context.Background(), time.Duration(seconds*float64(time.Second))+serviceDrain)
	defer stop()
	t0 := time.Now().Add(20 * time.Millisecond)
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(float64(i) / serviceRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		if lag := time.Since(due); lag > lagMax {
			lagMax = lag
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			recs[i] = w.submit(client, base, srv, w.jobs[w.pick(i)], due, giveUp)
		}(i, due)
	}
	wg.Wait()
	if hold != nil {
		hold.Cancel("measurement over")
		<-hold.Done()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = hs.Shutdown(ctx) // idle keep-alive connections close here
	_ = srv.Drain(ctx)   // every job has finished; nothing to cancel
	cancel()
	srv.Close()
	tp.CloseIdleConnections()
	<-served

	var good int
	var last time.Time
	byKind := map[string][]float64{}
	var submits, waits []float64
	var rejected int
	for _, r := range recs {
		m.tally.add(r.outcome, r.note)
		if r.outcome == refused {
			rejected++
		}
		if r.outcome != ok {
			continue
		}
		m.opSec = append(m.opSec, r.latency.Seconds())
		if r.latency <= serviceLimit {
			good++
		}
		if r.doneAt.After(last) {
			last = r.doneAt
		}
		byKind[r.kind] = append(byKind[r.kind], ms(r.run))
		submits = append(submits, ms(r.submit))
		waits = append(waits, ms(r.queueWait))
	}
	m.passes = 1
	// Goodput: jobs finished within the limit per second of the window
	// from the first job's due time to the last envelope read.
	if good > 0 {
		m.rate = float64(good) / last.Sub(t0).Seconds()
	}
	m.perLayer["techmap.area_overhead_pct"] = median(w.areaPct)
	if rec != nil {
		for _, r := range recs {
			if r.outcome == ok {
				rec.add("service.submit", r.due, r.submit)
				rec.add("service.queue", r.due.Add(r.submit), r.queueWait)
				rec.add(kindLayer[r.kind]+".job", r.due.Add(r.submit+r.queueWait), r.run)
			}
		}
		spanLayerMetrics(rec, m)
		for kind, xs := range byKind {
			m.perLayer["service.run_ms."+kind] = median(xs)
		}
		m.perLayer["service.queue_wait_ms_p99"] = percentile(waits, 99)
		m.perLayer["service.submit_ms_p50"] = median(submits)
		m.perLayer["service.rejected_ratio"] = float64(rejected) / float64(max(n, 1))
		m.perLayer["gen.lag_ms_max"] = ms(lagMax)
		w.probe(rec, m)
	}
	return m
}

// holdRunner wraps the job runner: the hold job waits until it is
// cancelled, every other job runs on inner.
func holdRunner(inner service.Runner) service.Runner {
	return service.RunnerFunc(func(ctx context.Context, spec service.JobSpec, tr *obs.Tracer) (service.JobResult, *service.Error) {
		if spec.Label == holdLabel {
			<-ctx.Done()
			return service.JobResult{}, service.Errorf(service.CodeCancelled, "hold released")
		}
		return inner.Run(ctx, spec, tr)
	})
}

// startHold submits the hold job and waits until a worker runs it. It
// keeps the scheduler's in-flight count above zero for the whole
// measurement. exec.Queue.Submit hands a task to a worker before it
// counts the task in flight, so a job that finishes in between would
// otherwise take the count below zero and crash the process (see
// README.md). The hold job leaves serviceWorkers workers for the
// measured jobs.
func (w *serviceWorkload) startHold(client *http.Client, base string, srv *service.Server) (*service.Job, error) {
	body, err := json.Marshal(obfuslock.JobSpec{Schema: obfuslock.JobSchemaVersion, Label: holdLabel, Kind: "sample", Circuit: w.circuits[0]})
	if err != nil {
		return nil, err
	}
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("submit hold job: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var env envelope
	if resp.StatusCode != http.StatusAccepted || json.Unmarshal(data, &env) != nil {
		return nil, fmt.Errorf("submit hold job: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	j, found := srv.Job(env.ID)
	if !found {
		return nil, fmt.Errorf("hold job %s not found", env.ID)
	}
	for j.State() == service.StateQueued {
		time.Sleep(time.Millisecond)
	}
	return j, nil
}

// kindLayer names the layer that runs each job kind, for the self-time
// table of the service workload.
var kindLayer = map[string]string{"lock": "core", "attack": "attacks", "cec": "cec", "count": "count", "sample": "skew"}

// pick returns the spec index of the i-th submitted job: every
// serviceLockEvery-th job takes the next ObfusLock lock spec, the others
// cycle through the loadgen mix.
func (w *serviceWorkload) pick(i int) int {
	if i%serviceLockEvery == serviceLockEvery-1 {
		k := i / serviceLockEvery
		if k%serviceMaxEvery == serviceMaxEvery-1 {
			return serviceSpecs + serviceLockSpecs + (k/serviceMaxEvery)%serviceMaxSpecs
		}
		return serviceSpecs + (k-k/serviceMaxEvery)%serviceLockSpecs
	}
	return i % serviceSpecs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// submit posts one job, waits for it to finish, reads its envelope and
// scores it against the serial reference.
func (w *serviceWorkload) submit(client *http.Client, base string, srv *service.Server, job serviceJob, due time.Time, giveUp context.Context) jobRecord {
	r := jobRecord{kind: job.kind, due: due}
	t0 := time.Now()
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(job.body))
	if err != nil {
		r.outcome, r.note = errored, fmt.Sprintf("submit %s: %v", job.kind, err)
		return r
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.submit = time.Since(t0)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		r.outcome, r.note = refused, fmt.Sprintf("submit %s: HTTP %d", job.kind, resp.StatusCode)
		return r
	case resp.StatusCode != http.StatusAccepted:
		r.outcome, r.note = errored, fmt.Sprintf("submit %s: HTTP %d: %s", job.kind, resp.StatusCode, bytes.TrimSpace(data))
		return r
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		r.outcome, r.note = errored, fmt.Sprintf("submit %s: %v", job.kind, err)
		return r
	}
	if j, found := srv.Job(env.ID); found {
		select {
		case <-j.Done():
		case <-giveUp.Done():
			r.outcome, r.note = missedDeadline, fmt.Sprintf("job %s (%s) unfinished at the drain deadline", env.ID, job.kind)
			return r
		}
	}
	resp, err = client.Get(base + "/v1/jobs/" + env.ID)
	if err != nil {
		r.outcome, r.note = errored, fmt.Sprintf("status %s: %v", env.ID, err)
		return r
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.doneAt = time.Now()
	r.latency = r.doneAt.Sub(due)
	if err := json.Unmarshal(data, &env); err != nil {
		r.outcome, r.note = errored, fmt.Sprintf("status %s: %v", env.ID, err)
		return r
	}
	created, _ := time.Parse(time.RFC3339Nano, env.CreatedAt)
	started, _ := time.Parse(time.RFC3339Nano, env.StartedAt)
	finished, _ := time.Parse(time.RFC3339Nano, env.FinishedAt)
	r.queueWait, r.run = started.Sub(created), finished.Sub(started)
	switch {
	case env.State != "done":
		msg := ""
		if env.Error != nil {
			msg = env.Error.Message
		}
		r.outcome, r.note = errored, fmt.Sprintf("job %s (%s) ended %s: %s", env.ID, job.kind, env.State, msg)
	case !bytes.Equal(env.Result, job.want):
		r.outcome, r.note = wrongOutput, fmt.Sprintf("job %s (%s): result differs from the serial reference", env.ID, job.kind)
	default:
		r.outcome = ok
	}
	return r
}

// probe times the .bench parser and writer, and the PPA analysis, on
// every circuit the jobs carry.
func (w *serviceWorkload) probe(rec *recorder, m *measurement) {
	for _, text := range w.circuits {
		end := rec.span("bench.read")
		c, err := bench.Read(strings.NewReader(text))
		end()
		if err != nil {
			m.tally.add(wrongOutput, fmt.Sprintf("bench.Read of a job circuit: %v", err))
			continue
		}
		end = rec.span("bench.write")
		_ = bench.Write(io.Discard, c)
		end()
		end = rec.span("techmap.ppa")
		techmap.Analyze(c, ppaWords, w.seed)
		end()
	}
	k := float64(max(len(w.circuits), 1))
	m.perLayer["bench.parse_ms"] = 1000 * rec.seconds(benchPrefix+"bench.read") / k
	m.perLayer["bench.write_ms"] = 1000 * rec.seconds(benchPrefix+"bench.write") / k
	m.perLayer["techmap.ppa_s"] = rec.seconds(benchPrefix + "techmap.ppa")
}
