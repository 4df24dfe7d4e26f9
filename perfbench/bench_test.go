package main

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"evvo/internal/cloud"
	"evvo/internal/road"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range []string{"commute-spread", "rush-hour-hot"} {
		w, err := lookupWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		a, na := openSchedule(w, 7, 2, 30, 3*time.Second, 10)
		b, nb := openSchedule(w, 7, 2, 30, 3*time.Second, 10)
		if !reflect.DeepEqual(a, b) || na != nb {
			t.Fatalf("%s: one seed gave two schedules", name)
		}
		if len(a) == 0 {
			t.Fatalf("%s: empty schedule", name)
		}
		c, _ := openSchedule(w, 8, 2, 30, 3*time.Second, 10)
		if reflect.DeepEqual(a, c) {
			t.Fatalf("%s: seeds 7 and 8 gave the same schedule", name)
		}
	}
	if !reflect.DeepEqual(fleetBatch(3, 5, 32), fleetBatch(3, 5, 32)) {
		t.Fatal("one seed gave two fleet batches")
	}
	if reflect.DeepEqual(fleetBatch(3, 5, 32), fleetBatch(4, 5, 32)) {
		t.Fatal("seeds 3 and 4 gave the same fleet batch")
	}
	// A commute slot departs at the same instant whichever phase asks.
	if !reflect.DeepEqual(commuteDepartures(5, 4, 10), commuteDepartures(5, 0, 14)[4:]) {
		t.Fatal("commute departures depend on the phase that draws them")
	}
}

// bucketOf mirrors the server's cache bucketing (5 s floor buckets).
func bucketOf(depart float64) float64 { return math.Floor(depart / 5) }

// commute-spread is designed so fewer than 5% of requests share a cache
// bucket; rush-hour-hot so every request lands in its small hot set.
func TestDepartureProcesses(t *testing.T) {
	d := commuteDepartures(9, 0, 2000)
	seen := map[float64]bool{}
	shared := 0
	for _, x := range d {
		if seen[bucketOf(x)] {
			shared++
		}
		seen[bucketOf(x)] = true
	}
	if f := float64(shared) / float64(len(d)); f >= 0.05 {
		t.Fatalf("%.3f of commute requests share a bucket, want < 0.05", f)
	}
	hot := map[float64]bool{}
	for _, b := range hotSet(9) {
		hot[bucketOf(b)] = true
	}
	if len(hot) != hotBuckets {
		t.Fatalf("hot set has %d distinct buckets, want %d", len(hot), hotBuckets)
	}
	// Paced arrivals never come closer than 1 − pacedJitter of a gap.
	c, _ := lookupWorkload("commute-spread")
	paced, _ := openSchedule(c, 9, 0, 10, 20*time.Second, 0)
	if len(paced) != 200 {
		t.Fatalf("paced schedule has %d arrivals, want 200", len(paced))
	}
	for i := 1; i < len(paced); i++ {
		if gap := paced[i].Due - paced[i-1].Due; gap < 87*time.Millisecond {
			t.Fatalf("paced arrivals %d and %d are %v apart, want ≥ 87ms", i-1, i, gap)
		}
	}
	w, _ := lookupWorkload("rush-hour-hot")
	jobs, _ := openSchedule(w, 9, 0, 200, time.Second, 0)
	for _, j := range jobs {
		if !hot[bucketOf(j.Req.DepartTime)] {
			t.Fatalf("departure %.3f is outside the hot set", j.Req.DepartTime)
		}
	}
}

// lat_tail_ms is the median of block tails: a burst in one block does not
// move it, and the block count follows the sample size.
func TestBlockTail(t *testing.T) {
	ms := make([]float64, 1000)
	for i := range ms {
		ms[i] = float64(i%200 + 1) // every block of 200 holds 1..200: p95 190
	}
	for i := 400; i < 600; i++ {
		ms[i] = 1000 // a burst fills the third block
	}
	if tail, blocks := blockTail(ms); tail != 190 || blocks != 5 {
		t.Fatalf("blockTail(5×200 with a burst) = %g over %d blocks, want 190 over 5", tail, blocks)
	}
	for _, c := range []struct{ n, blocks int }{{0, 1}, {150, 1}, {399, 1}, {400, 1}, {600, 3}, {800, 3}, {2400, 5}} {
		if _, blocks := blockTail(make([]float64, c.n)); blocks != c.blocks {
			t.Errorf("blockTail of %d plans uses %d blocks, want %d", c.n, blocks, c.blocks)
		}
	}
	// One block is the whole phase's supported tail.
	s := make([]float64, 240)
	for i := range s {
		s[i] = float64(240 - i)
	}
	if tail, _ := blockTail(s); tail != summarize(s).TailMs || tail != 228 {
		t.Fatalf("single-block tail = %g, want the phase's p95 228", tail)
	}
}

func TestQuantileAndTail(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{0.5: 50, 0.95: 95, 0.99: 99, 1: 100, 0.001: 1} {
		if got := quantile(s, p); got != want {
			t.Errorf("quantile(1..100, %g) = %g, want %g", p, got, want)
		}
	}
	if got := quantile([]float64{3, 7, 9}, 0.5); got != 7 {
		t.Errorf("median of 3 = %g, want 7", got)
	}
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		left int
	}{
		{199, 0.95, false, 9},
		{200, 0.95, true, 10},
		{999, 0.95, true, 49},
		{1000, 0.99, true, 10},
		{5000, 0.99, true, 50},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok || beyond(c.n, p) != c.left {
			t.Errorf("tailPercentile(%d) = p%g ok=%v with %d beyond, want p%g ok=%v with %d",
				c.n, p*100, ok, beyond(c.n, p), c.p*100, c.ok, c.left)
		}
	}
	// The summary reports the chosen tail from the raw samples.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(1000 - i) // unsorted input
	}
	sum := summarize(big)
	if sum.TailPct != 99 || sum.TailMs != 990 || sum.P50Ms != 500 || sum.Count != 1000 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestSLOInterpolation(t *testing.T) {
	cases := []struct {
		steps     []ladderPoint
		want      float64
		saturated bool
	}{
		// Passes at 30 with score 0.8, fails at 40 with 1.4: the limit is
		// crossed a third of the way up.
		{[]ladderPoint{{20, 0.5}, {30, 0.8}, {40, 1.4}}, 30 + 10.0/3, true},
		// Every step passes: the top rate, flagged unsaturated.
		{[]ladderPoint{{20, 0.5}, {30, 0.9}}, 30, false},
		// The first step fails: interpolate from an idle system.
		{[]ladderPoint{{20, 2}}, 10, true},
	}
	for i, c := range cases {
		got, sat := sloRate(c.steps)
		if math.Abs(got-c.want) > 1e-9 || sat != c.saturated {
			t.Errorf("case %d: sloRate = %g (saturated %v), want %g (%v)", i, got, sat, c.want, c.saturated)
		}
	}
	if s := stepScore(300, 400, 0, 0, 8); s != 0.75 {
		t.Errorf("latency-bound score = %g, want 0.75", s)
	}
	if s := stepScore(100, 400, 0.02, 0, 8); s != 2 {
		t.Errorf("failure-bound score = %g, want 2", s)
	}
	if s := stepScore(100, 400, 0, 12, 8); s != 1.5 {
		t.Errorf("backlog-bound score = %g, want 1.5", s)
	}
}

// At departure 138.7 s on the default grid the stitched and monolithic
// plans trade 47.7 mAh of charge for 60 s of trip time at near-equal
// objective: the gap check must pass it, and must catch a plan that is
// worse on the objective.
func TestObjectiveGap(t *testing.T) {
	const (
		stitchAh, stitchSec = 1.0641832216046978, 350.73989575913936
		monoAh, monoSec     = 1.016524342225012, 410.7387020035705
	)
	if d := stitchAh - monoAh; d < maxObjectiveGapAh {
		t.Fatalf("charge differs by %.4f Ah; the case is meant to exceed the bound on charge alone", d)
	}
	if g := objectiveAh(stitchAh, stitchSec) - objectiveAh(monoAh, monoSec); g > 0.0009 {
		t.Fatalf("objective gap %.6f Ah, want under 0.9 mAh", g)
	}

	ctx := context.Background()
	rp, err := newReplayer(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rp.tables.StitchCtx(ctx, rp.config(138.7, rp.windows(138.7)))
	if err != nil {
		t.Fatal(err)
	}
	served := &cloud.Response{ChargeAh: res.ChargeAh, TripSec: res.TripSec}
	for _, p := range res.Profile.Points() {
		served.Profile = append(served.Profile, cloud.PointJSON{T: p.T, Pos: p.Pos, V: p.V})
	}
	gap, ratio, err := costGap(ctx, rp, served)
	if err != nil {
		t.Fatal(err)
	}
	if gap > maxObjectiveGapAh || ratio > 1.001 {
		t.Fatalf("stitched plan at 138.7 s: gap %.3f mAh ratio %.5f", gap*1000, ratio)
	}
	worse := *served
	worse.ChargeAh += 2 * maxObjectiveGapAh
	if gap, _, _ := costGap(ctx, rp, &worse); gap <= maxObjectiveGapAh {
		t.Fatalf("a plan %.0f mAh worse passed the gap check (gap %.3f mAh)", 2*maxObjectiveGapAh*1000, gap*1000)
	}
}

func TestCheckPlan(t *testing.T) {
	good := func() *cloud.Response {
		return &cloud.Response{
			Profile:  []cloud.PointJSON{{T: 10, Pos: 0}, {T: 20, Pos: 50, V: 8}, {T: 30, Pos: 100}},
			ChargeAh: 0.1, TripSec: 20,
			Arrivals: []cloud.ArrivalJSON{{Name: "light-1", InWindow: true}},
		}
	}
	if err := checkPlan(good(), 100); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
	bad := map[string]func(r *cloud.Response){
		"time backwards":     func(r *cloud.Response) { r.Profile[1].T = 5 },
		"position backwards": func(r *cloud.Response) { r.Profile[1].Pos = 120 },
		"short of route end": func(r *cloud.Response) { r.Profile[2].Pos = 90 },
		"charge NaN":         func(r *cloud.Response) { r.ChargeAh = math.NaN() },
		"trip mismatch":      func(r *cloud.Response) { r.TripSec = 25 },
		"outside window":     func(r *cloud.Response) { r.Arrivals[0].InWindow = false },
	}
	for name, mutate := range bad {
		r := good()
		mutate(r)
		if checkPlan(r, 100) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	r := good()
	r.Arrivals[0].InWindow, r.Penalized = false, true
	if err := checkPlan(r, 100); err != nil {
		t.Errorf("penalized plan outside its window rejected: %v", err)
	}
}

// The replay must take the server's path: a served miss is reproduced
// bit for bit by windows and stitch, a hit runs no dp layer, and the
// handler span joins its root span.
func TestReplayMatchesServer(t *testing.T) {
	ctx := context.Background()
	tr := newTracer()
	c, err := startCluster(ctx, 1, handlerWrap(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	cls, tp, err := newClients(c.urls(), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.CloseIdleConnections()
	rp, err := newReplayer(ctx)
	if err != nil {
		t.Fatal(err)
	}
	chk := &checker{routeLenM: road.US25().LengthM()}
	for _, depart := range []float64{40, 138.7, 612.3, 612.9} {
		req := usRequest(depart)
		root := tr.newID()
		resp, err := cls[0].Optimize(withTrace(ctx, root), req)
		if err != nil {
			t.Fatal(err)
		}
		chk.check(resp)
		// The handler span is added when ServeHTTP returns, which can be
		// after the client has read the whole response.
		deadline := time.Now().Add(time.Second)
		for _, ok := tr.handlerSpan(root); !ok; _, ok = tr.handlerSpan(root) {
			if time.Now().After(deadline) {
				t.Fatalf("depart %g: no handler span for root %d", depart, root)
			}
			time.Sleep(time.Millisecond)
		}
		if resp.Profile[0].T != depart && !resp.Cached {
			t.Fatalf("depart %g: plan starts at %g", depart, resp.Profile[0].T)
		}
		lt, err := rp.replayPlan(ctx, tr, root, req, resp, true)
		if err != nil {
			t.Fatalf("depart %g: %v", depart, err)
		}
		if want := depart != 612.9; lt.Miss != want || resp.Cached == want {
			t.Fatalf("depart %g: replayed miss %v, served cached %v", depart, lt.Miss, resp.Cached)
		}
	}
	if !chk.ok() {
		t.Fatalf("served plans failed the gate: %v", chk.first)
	}
}
