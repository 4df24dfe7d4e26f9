package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"evvo/internal/cloud"
)

// bench is one run of one workload.
type bench struct {
	w      workload
	seed   int64
	dur    time.Duration
	trace  bool
	chk    *checker
	outDir string
	env    envRecord

	tr  *tracer
	c   *cluster
	cls []*cloud.Client
	tp  *http.Transport

	nextSlot, nextCall int // commute slots and fleet calls used so far
	attempted, failed  int
	rep                report
}

// report is everything a run measured, stored next to its spans.
type report struct {
	Env      envRecord         `json:"env"`
	SetupSec []float64         `json:"setupSec"`
	Phases   []*phase          `json:"phases"`
	Metrics  map[string]metric `json:"metrics"`
	Extra    map[string]metric `json:"extra"`
	Failures []string          `json:"checkFailures,omitempty"`
}

// drainBudget is how long an open-loop step's queued requests may still
// be sent after the step ends; later ones are dropped.
const drainBudget = time.Second

// Shares, in percent, of an untraced open-loop run: the nominal step,
// where latencies are reported, and the saturation phase, in which conns
// clients send back to back and plans_per_s is measured. The nominal
// step is sized so it holds enough plans for its tail percentile to have
// at least 10 samples beyond it. The run alternates between the two in
// slices, so both sample the host over the whole run: the shared host's
// speed swings by up to 1.7× for seconds at a time, and a saturation
// phase taken in one stretch at the end moved plans_per_s by a quarter
// from run to run.
const (
	nominalShare    = 75
	saturationShare = 25
	slices          = 4
)

// gapSample is how many served plans are re-solved monolithically.
const gapSample = 8

func (b *bench) printf(format string, args ...any) {
	fmt.Printf("perfbench "+format+"\n", args...)
}

func (b *bench) run(ctx context.Context) (*result, error) {
	b.rep = report{Env: b.env, Metrics: map[string]metric{}, Extra: map[string]metric{}}
	if b.trace {
		b.tr = newTracer()
	}
	defer b.stop()
	setups := b.w.Setups
	if b.trace {
		setups = 1
	}
	for k := 0; k < setups; k++ {
		if k > 0 {
			b.stop()
		}
		sec, err := b.setup(ctx, k)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k+1, err)
		}
		b.rep.SetupSec = append(b.rep.SetupSec, sec)
	}
	var err error
	if b.trace {
		err = b.measureTraced(ctx)
	} else {
		err = b.measure(ctx)
	}
	if err != nil {
		return nil, err
	}
	b.rep.Failures = b.chk.first
	for _, name := range sortedKeys(b.rep.Metrics) {
		m := b.rep.Metrics[name]
		b.printf("metric %s = %.6g %s", name, m.Value, m.Unit)
	}
	for _, name := range sortedKeys(b.rep.Extra) {
		m := b.rep.Extra[name]
		b.printf("report %s = %.6g %s", name, m.Value, m.Unit)
	}
	for _, f := range b.chk.first {
		b.printf("CHECK FAILED: %s", f)
	}
	if b.chk.failures > len(b.chk.first) {
		b.printf("CHECK FAILED: %d more", b.chk.failures-len(b.chk.first))
	}
	if err := b.writeOutputs(); err != nil {
		return nil, err
	}
	return &result{Correct: b.chk.ok(), Attempted: b.attempted, Failed: b.failed, Metrics: b.rep.Metrics}, nil
}

func sortedKeys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// stop tears the current members and the generator's connections down.
func (b *bench) stop() {
	if b.tp != nil {
		b.tp.CloseIdleConnections()
		b.tp = nil
	}
	if b.c != nil {
		b.c.close()
		b.c = nil
	}
}

// setup boots the members, waits until each is ready and runs the
// workload's warm-up: the span setup_s measures.
func (b *bench) setup(ctx context.Context, k int) (float64, error) {
	t0 := time.Now()
	c, err := startCluster(ctx, b.w.Nodes, handlerWrap(b.tr))
	if err != nil {
		return 0, err
	}
	b.c = c
	b.cls, b.tp, err = newClients(c.urls(), b.tr)
	if err != nil {
		return 0, err
	}
	warm := &phase{Name: fmt.Sprintf("warm-up %d", k+1)}
	switch b.w.Name {
	case "commute-spread":
		// Slots 0..3 are warm-up's; measured requests start at slot 4.
		for _, d := range commuteDepartures(b.seed, 0, 4) {
			b.warmOne(ctx, warm, usRequest(d))
		}
		b.nextSlot = 4
	case "rush-hour-hot":
		// Prime every hot bucket, then hit each once more.
		for round := 0; round < 2; round++ {
			for _, d := range hotSet(b.seed) {
				b.warmOne(ctx, warm, usRequest(d+2.5))
			}
		}
	case "fleet-batch-cluster":
		// One small call per member acquires every member's tables:
		// the owner builds and replicates, the others fetch or receive.
		for i := range b.cls {
			b.warmBatch(ctx, warm, i, fleetBatch(b.seed, i, 2))
		}
		b.nextCall = len(b.cls)
		if err := b.awaitReplication(ctx); err != nil {
			return 0, err
		}
	}
	sec := time.Since(t0).Seconds()
	b.printf("setup %d: %.4f s; %s", k+1, sec, counts(warm))
	if warm.Failed > 0 || warm.OK == 0 {
		return 0, fmt.Errorf("warm-up failed: %s", counts(warm))
	}
	b.rep.Phases = append(b.rep.Phases, warm)
	return sec, nil
}

func (b *bench) warmOne(ctx context.Context, p *phase, req cloud.Request) {
	p.Sent++
	resp, err := b.cls[0].Optimize(ctx, req)
	if err != nil {
		p.Failed++
		return
	}
	b.chk.check(resp)
	p.OK++
	if resp.Degraded {
		p.Degraded++
	}
}

func (b *bench) warmBatch(ctx context.Context, p *phase, nodeIdx int, req cloud.BatchRequest) {
	p.Sent += len(req.Requests)
	resp, err := b.cls[nodeIdx].OptimizeBatch(ctx, req)
	if err != nil {
		p.Failed += len(req.Requests)
		return
	}
	for _, it := range resp.Results {
		if it.Response == nil {
			p.Failed++
			continue
		}
		b.chk.check(it.Response)
		p.OK++
		if it.Response.Degraded {
			p.Degraded++
		}
	}
}

// awaitReplication waits until the route's owner has pushed its tables to
// its ring successor (cloudd's default of two copies per route).
func (b *bench) awaitReplication(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := b.c.stats(ctx, b.cls)
		if err != nil {
			return err
		}
		pushed := int64(0)
		for _, s := range st {
			if s.Cluster != nil {
				pushed += s.Cluster.ReplicasPushed
			}
		}
		if pushed >= 1 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no table replica pushed within 10 s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func counts(p *phase) string {
	s := fmt.Sprintf("sent %d succeeded %d failed %d degraded %d", p.Sent, p.OK, p.Failed, p.Degraded)
	if p.Dropped > 0 {
		s += fmt.Sprintf(" dropped %d", p.Dropped)
	}
	return s
}

func (b *bench) logPhase(p *phase) {
	l := p.Latency
	tail := fmt.Sprintf("p%g %.4g ms (%d beyond)", l.TailPct, l.TailMs, l.BeyondCnt)
	if !l.TailOK {
		tail += " UNDER-SAMPLED"
	}
	rate := ""
	if p.RateRPS > 0 {
		rate = fmt.Sprintf(" at %g rps", p.RateRPS)
	}
	b.printf("phase %s%s: %s hits %d; latency n %d p50 %.4g ms %s; p95 incl. failed %.4g ms; backlog end %d peak %d; score %.3f; %.2f s",
		p.Name, rate, counts(p), p.Hits, l.Count, l.P50Ms, tail, p.P95Ms, p.BacklogEnd, p.BacklogPeak, p.Score, p.ElapsedSec)
	b.rep.Phases = append(b.rep.Phases, p)
	b.attempted += p.Sent
	b.failed += p.Failed
}

// What a step retains of its answers.
const (
	keepNone   = iota
	keepSample // a seeded sample, for the objective check
	keepAll    // everything, for replay
)

// step runs one open-loop ladder step.
func (b *bench) step(ctx context.Context, name string, idx int, rps float64, dur time.Duration, tr *tracer, keepMode int) *phase {
	jobs, next := openSchedule(b.w, b.seed, idx, rps, dur, b.nextSlot)
	b.nextSlot = next
	sample := map[int]bool{}
	if keepMode == keepSample {
		for _, i := range sampleIndices(b.seed, len(jobs), 4*gapSample) {
			sample[i] = true
		}
	}
	keep := func(i int) bool { return keepMode == keepAll || sample[i] }
	p := runOpen(ctx, b.cls[0], jobs, jobs[len(jobs)-1].Due, drainBudget, tr, b.chk, keep)
	p.Name, p.RateRPS = name, rps
	allow := math.Max(2*conns, rps*b.w.LimitMs/1000)
	p.Score = stepScore(p.P95Ms, b.w.LimitMs, frac(p.Failed, p.Sent+p.Dropped), float64(p.BacklogEnd), allow)
	b.logPhase(p)
	return p
}

// add folds slice q of a phase into p. The slices are already counted in
// the run's attempted and failed totals.
func (p *phase) add(q *phase) {
	p.Sent += q.Sent
	p.OK += q.OK
	p.Failed += q.Failed
	p.Degraded += q.Degraded
	p.Hits += q.Hits
	p.Dropped += q.Dropped
	p.ElapsedSec += q.ElapsedSec
	p.lat = append(p.lat, q.lat...)
	p.kept = append(p.kept, q.kept...)
	p.res.cpuMs += q.res.cpuMs
	p.res.heapPeak = max(p.res.heapPeak, q.res.heapPeak)
	p.res.heapWindows = append(p.res.heapWindows, q.res.heapWindows...)
}

// closed runs the batch workload's closed loop for the calls dur is sized
// for (see ClosedRPS), starting none after four times dur, so a stalled
// host cannot hold the run past its limit.
func (b *bench) closed(ctx context.Context, dur time.Duration, tr *tracer, keepAll bool) (*phase, int) {
	calls := max(conns, int(math.Round(b.w.ClosedRPS*dur.Seconds()/float64(b.w.BatchSize))))
	return runClosed(ctx, b.cls, b.seed, b.nextCall, calls, b.w.BatchSize, 4*dur, tr, b.chk, keepAll)
}

// saturate runs the open-loop workload's inputs closed-loop: ClosedRPS·dur
// of them, all due at once, so conns clients send back to back until
// every one is answered, and the phase's throughput is the most the
// members serve at that concurrency. Inputs still unsent after four times
// dur are dropped, so a stalled host cannot hold the run past its limit.
func (b *bench) saturate(ctx context.Context, dur time.Duration) *phase {
	jobs, next := openSchedule(b.w, b.seed, len(b.w.LadderRPS), b.w.ClosedRPS, dur, b.nextSlot)
	b.nextSlot = next
	for i := range jobs {
		jobs[i].Due = 0
	}
	p := runOpen(ctx, b.cls[0], jobs, 0, 4*dur, nil, b.chk, func(int) bool { return false })
	p.Name = "saturation"
	b.logPhase(p)
	return p
}

// ladder runs the open-loop rate ladder untraced: the nominal step for
// dur, then each higher step for an equal share of dur, stopping at the
// first step that fails, and reports slo_rps. It returns the nominal step.
func (b *bench) ladder(ctx context.Context, dur time.Duration) *phase {
	rates := b.w.LadderRPS
	var nominal *phase
	var pts []ladderPoint
	for i, rps := range rates {
		d, name := dur/time.Duration(len(rates)-1), fmt.Sprintf("ladder-%d", i)
		if i == 0 {
			d, name = dur, "untraced"
		}
		p := b.step(ctx, name, i, rps, d, nil, keepNone)
		if i == 0 {
			nominal = p
		}
		pts = append(pts, ladderPoint{RateRPS: rps, Score: p.Score})
		if p.Score > 1 {
			break
		}
	}
	slo, saturated := sloRate(pts)
	b.rep.Extra["slo_rps"] = metric{slo, "1/s"}
	if !saturated {
		b.printf("note: every ladder step passed; slo_rps is the top step, a floor on capacity")
	}
	return nominal
}

// measure is the untraced run that yields the end-to-end metrics.
func (b *bench) measure(ctx context.Context) error {
	var meas *phase
	extra := b.rep.Extra
	if b.w.Loop == "open" {
		meas = &phase{Name: "nominal", RateRPS: b.w.LadderRPS[0]}
		sat := &phase{Name: "saturation"}
		for k := 1; k <= slices; k++ {
			meas.add(b.step(ctx, fmt.Sprintf("nominal-%d", k), 0, meas.RateRPS, b.dur*nominalShare/100/slices, nil, keepSample))
			sat.add(b.saturate(ctx, b.dur*saturationShare/100/slices))
		}
		meas.Latency = summarize(meas.lat)
		b.printf("phase nominal (%d slices): %s; latency n %d p50 %.4g ms; %.2f s", slices, counts(meas),
			meas.Latency.Count, meas.Latency.P50Ms, meas.ElapsedSec)
		b.printf("phase saturation (%d slices): %s; %.2f s", slices, counts(sat), sat.ElapsedSec)
		b.rep.Metrics["plans_per_s"] = metric{float64(sat.OK) / sat.ElapsedSec, "1/s"}
	} else {
		p, next := b.closed(ctx, b.dur, nil, false)
		b.nextCall = next
		p.Name = "closed"
		b.logPhase(p)
		meas = p
		ips := float64(p.OK) / p.ElapsedSec
		extra["items_per_s"] = metric{ips, "1/s"}
		b.rep.Metrics["plans_per_s"] = metric{ips, "1/s"}
	}
	m := b.rep.Metrics
	m["setup_s"] = metric{median(b.rep.SetupSec), "s"}
	m["lat_p50_ms"] = metric{meas.Latency.P50Ms, "ms"}
	tail, blocks := blockTail(meas.lat)
	m["lat_tail_ms"] = metric{tail, "ms"}
	m["cpu_ms_per_item"] = metric{meas.res.cpuMs / float64(max(meas.OK, 1)), "ms"}
	m["heap_peak_mb"] = metric{median(meas.res.heapWindows) / (1 << 20), "MiB"}
	extra["heap_max_mb"] = metric{float64(meas.res.heapPeak) / (1 << 20), "MiB"}
	extra["lat_tail_percentile"] = metric{summarize(meas.lat[:len(meas.lat)/blocks]).TailPct, "pct"}
	extra["lat_tail_blocks"] = metric{float64(blocks), "count"}
	extra["lat_phase_tail_ms"] = metric{meas.Latency.TailMs, "ms"}
	extra["lat_samples"] = metric{float64(meas.Latency.Count), "count"}
	extra["fail_frac"] = metric{frac(meas.Failed, meas.Sent), "frac"}
	extra["degraded_frac"] = metric{frac(meas.Degraded, meas.OK), "frac"}
	if !meas.Latency.TailOK {
		b.chk.fail(fmt.Errorf("measured phase has %d plans, too few for a p95 with 10 beyond", meas.Latency.Count))
	}
	return b.planCost(ctx, meas)
}

func frac(a, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(a) / float64(n)
}

// planCost re-solves a seeded sample of the measured phase's served plans
// with the monolithic DP and records the largest objective gap.
func (b *bench) planCost(ctx context.Context, p *phase) error {
	rp, err := newReplayer(ctx)
	if err != nil {
		return err
	}
	var pool []*cloud.Response
	for _, k := range p.kept {
		if !k.resp.Degraded {
			pool = append(pool, k.resp)
		}
	}
	gap, ratio := math.Inf(-1), math.Inf(-1)
	for _, i := range sampleIndices(b.seed, len(pool), gapSample) {
		g, r, err := costGap(ctx, rp, pool[i])
		if err != nil {
			return err
		}
		if err := gapError(pool[i].Profile[0].T, g); err != nil {
			b.chk.fail(err)
		}
		gap, ratio = math.Max(gap, g), math.Max(ratio, r)
	}
	if math.IsInf(ratio, -1) {
		b.chk.fail(fmt.Errorf("no served plan to compare against the monolithic DP"))
		gap, ratio = 0, 0
	}
	b.rep.Metrics["plan_cost_ratio"] = metric{ratio, "ratio"}
	b.rep.Extra["plan_cost_gap_mah"] = metric{gap * 1000, "mAh"}
	return nil
}

// writeOutputs stores the report and, for a traced run, the spans.
func (b *bench) writeOutputs() error {
	base := fmt.Sprintf("%s-seed%d-trace%d", b.w.Name, b.seed, b.env.Trace)
	if b.tr != nil {
		path := filepath.Join(b.outDir, "spans-"+base+".jsonl")
		if err := b.tr.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		b.printf("spans written to %s (%d spans)", path, len(b.tr.spans))
	}
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(b.outDir, "report-"+base+".json"), []byte(mustJSON(b.rep)+"\n"), 0o644)
}
