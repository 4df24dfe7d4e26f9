package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"evvo/internal/cloud"
)

// workload describes one traffic mix. Every field is fixed here, never
// derived from a run, so two commits are measured on identical terms.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Loop is "open" (paced arrivals on a schedule) or "closed" (each
	// client sends its next call when the previous one returns).
	Loop string `json:"loop"`
	// LadderRPS are the offered rates of an open loop, ascending; the
	// first is the nominal step at which latencies are reported.
	LadderRPS []float64 `json:"ladderRps,omitempty"`
	// ClosedRPS sizes the closed-loop phases (an open loop's saturation
	// phase, the batch loop): a phase given d seconds sends ClosedRPS·d
	// plans, a fixed count, and takes as long as they take. On a slower
	// host it runs longer instead of serving fewer plans, so every run
	// leaves the same entries in the members' caches and heaps, and the
	// heap metric does not follow the host's speed.
	ClosedRPS float64 `json:"closedLoopSizingRps"`
	// LimitMs is the p95 latency limit an open-loop ladder step must meet.
	LimitMs float64 `json:"limitMs,omitempty"`
	// Nodes is the number of in-process cloudd members.
	Nodes int `json:"nodes"`
	// BatchSize is the items per /v1/optimize/batch call (closed loop).
	BatchSize int `json:"batchSize,omitempty"`
	// Setups is how many times set-up is repeated for the setup_s median.
	Setups int `json:"setups"`
}

// conns is the generator's concurrency: at most this many requests are in
// flight, over keep-alive connections. It equals the core count of the
// machine the benchmark was designed on (2), so the generator never needs
// more client goroutines than there are cores.
const conns = 2

var workloads = []workload{
	{
		Name: "commute-spread",
		Why: "every departure in its own 5 s cache bucket, so each plan is a fresh stitch over the shared " +
			"segment tables: solver and segment-table changes show here",
		// At the nominal 10 rps arrivals are at least 87.5 ms apart, more
		// than a plan's ~60 ms, so no plan runs beside another and the
		// p95 measures the plan itself (see arrivals).
		Loop: "open", LadderRPS: []float64{10, 24, 32, 40, 48}, ClosedRPS: 40, LimitMs: 400, Nodes: 1, Setups: 5,
	},
	{
		Name: "rush-hour-hot",
		Why: "a few hot departure buckets primed in warm-up, so every measured plan is a cache hit: HTTP, " +
			"cache lock and JSON codec changes show here and solver changes should not",
		// The nominal step offers 100·24 = 2400 plans at the benchmark's
		// 32 s, 8.75 ms or more apart against a hit's ~2 ms: five tail
		// blocks of 480 plans, each with a p95 (24 beyond), and no plan
		// beside another.
		Loop: "open", LadderRPS: []float64{100, 400, 800, 1200, 1600}, ClosedRPS: 1700, LimitMs: 25, Nodes: 1, Setups: 5,
	},
	{
		Name: "fleet-batch-cluster",
		Why: "3-node cluster fed 32-item batch calls round-robin with a drifting departure window: the only " +
			"workload with batch fan-out, large batch responses and table replication over the gob wire",
		Loop: "closed", ClosedRPS: 70, Nodes: 3, BatchSize: 32, Setups: 3,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// job is one scheduled single request of an open loop.
type job struct {
	Due time.Duration
	Req cloud.Request
}

func usRequest(depart float64) cloud.Request {
	return cloud.Request{Route: "us25", Variant: cloud.VariantQueueAware, DepartTime: depart}
}

// streamRNG returns the generator of one input stream (kind, idx) of a
// seed, so drawing more from one stream never shifts another's inputs.
func streamRNG(seed int64, kind, idx uint64) *rand.Rand {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ kind*0xBF58476D1CE4E5B9 ^ (idx+1)*0x94D049BB133111EB
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x)))
}

// Input stream kinds.
const (
	streamArrivals uint64 = iota + 1
	streamDepartures
	streamHotSet
	streamHotPick
	streamSample
	streamBatch
)

// arrivals draws n paced arrival offsets at rps: the i-th at
// (i + u·pacedJitter)/rps for a seeded uniform u. The count is fixed, not
// the span, so every step of a given rate and length offers the same
// number of plans.
//
// Paced, not Poisson: at the nominal rates a Poisson process put 8–16% of
// plans beside a neighbour in flight. The p95 fell among them, and what
// sharing two vCPUs cost them followed the host's load, so the p95 of the
// same code moved by a third from run to run; paced, it measures the plan.
func arrivals(rng *rand.Rand, rps float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		t := (float64(i) + rng.Float64()*pacedJitter) / rps
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// pacedJitter is the share of a gap by which a paced arrival may come
// late: enough to keep arrivals out of step with the runtime's and the
// members' periodic work, small enough that neighbours stay apart.
const pacedJitter = 1.0 / 8

// commuteSlotSec is the simulated time that passes per commute request:
// each request departs at a seeded instant inside its own slot, so only
// neighbours straddling a slot edge can share a 5 s cache bucket.
const commuteSlotSec = 60

// commuteDepartures returns departures for slots [first, first+n).
func commuteDepartures(seed int64, first, n int) []float64 {
	rng := streamRNG(seed, streamDepartures, 0)
	// Skip the draws of earlier slots so slot i always gets the same
	// departure whichever phase asks for it.
	for i := 0; i < first; i++ {
		rng.Float64()
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(first+i)*commuteSlotSec + rng.Float64()*commuteSlotSec
	}
	return out
}

// hotBuckets is the size of rush-hour-hot's departure set.
const hotBuckets = 8

// hotSet returns rush-hour-hot's distinct departure buckets (their start
// times, multiples of the server's 5 s cache bucket) within the first hour.
func hotSet(seed int64) []float64 {
	rng := streamRNG(seed, streamHotSet, 0)
	seen := map[int]bool{}
	var out []float64
	for len(out) < hotBuckets {
		b := rng.Intn(720)
		if !seen[b] {
			seen[b] = true
			out = append(out, float64(b)*5)
		}
	}
	return out
}

// hotDepartures draws n departures from the hot set, each at a seeded
// offset inside its bucket.
func hotDepartures(rng *rand.Rand, set []float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = set[rng.Intn(len(set))] + rng.Float64()*4.9
	}
	return out
}

// openSchedule builds one ladder step's jobs: rps·dur arrivals at rps,
// with departures from the workload's departure process. next is the
// first unused commute slot; the returned value is the next after this step.
func openSchedule(w workload, seed int64, stepIdx int, rps float64, dur time.Duration, next int) ([]job, int) {
	n := max(1, int(math.Round(rps*dur.Seconds())))
	due := arrivals(streamRNG(seed, streamArrivals, uint64(stepIdx)), rps, n)
	var departs []float64
	switch w.Name {
	case "commute-spread":
		departs = commuteDepartures(seed, next, len(due))
		next += len(due)
	default:
		departs = hotDepartures(streamRNG(seed, streamHotPick, uint64(stepIdx)), hotSet(seed), len(due))
	}
	jobs := make([]job, len(due))
	for i := range jobs {
		jobs[i] = job{Due: due[i], Req: usRequest(departs[i])}
	}
	return jobs, next
}

// Fleet batches: call i carries BatchSize departures drawn uniformly from
// a window of fleetWindowSec starting at i·fleetDriftSec. The window moves
// on with each call, so a node's cache holds the buckets of recent calls
// only and the hit share settles instead of climbing towards 100% as it
// would over a fixed window.
const (
	fleetWindowSec = 300
	fleetDriftSec  = 40
)

// fleetBatch returns call i of the fleet workload.
func fleetBatch(seed int64, i, size int) cloud.BatchRequest {
	rng := streamRNG(seed, streamBatch, uint64(i))
	reqs := make([]cloud.Request, size)
	base := float64(i) * fleetDriftSec
	for k := range reqs {
		reqs[k] = usRequest(base + rng.Float64()*fleetWindowSec)
	}
	return cloud.BatchRequest{Requests: reqs}
}

// sampleIndices picks up to k distinct indices of [0, n), seeded, in
// ascending order: the plans whose objective is checked against the
// monolithic reference.
func sampleIndices(seed int64, n, k int) []int {
	if n <= 0 {
		return nil
	}
	perm := streamRNG(seed, streamSample, 0).Perm(n)
	if k > n {
		k = n
	}
	out := append([]int(nil), perm[:k]...)
	sort.Ints(out)
	return out
}
