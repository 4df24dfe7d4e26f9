package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank p-quantile of an ascending sample: the
// smallest sample with at least p·n samples at or below it. It is exact —
// a raw sample, never an interpolation between histogram buckets.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// beyond counts the samples strictly above the nearest-rank p-quantile's
// position: n − ⌈p·n⌉.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)-1e-9))
}

// tailPercentile picks the tail a sample of n supports: the highest of p99
// and p95 with at least 10 samples beyond it. ok is false when even p95
// has fewer than 10 beyond; p95 is then still returned so the caller can
// report it, flagged as under-sampled.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range []float64{0.99, 0.95} {
		if beyond(n, p) >= 10 {
			return p, true
		}
	}
	return 0.95, false
}

// latencySummary is the exact summary of one set of latency samples.
type latencySummary struct {
	Count     int     `json:"count"`
	P50Ms     float64 `json:"p50Ms"`
	TailMs    float64 `json:"tailMs"`
	TailPct   float64 `json:"tailPct"`
	TailOK    bool    `json:"tailSampled"`
	BeyondCnt int     `json:"beyondTail"`
	MaxMs     float64 `json:"maxMs"`
}

// summarize sorts a copy of ms and reports its median and supported tail.
func summarize(ms []float64) latencySummary {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	p, ok := tailPercentile(len(s))
	out := latencySummary{Count: len(s), TailPct: p * 100, TailOK: ok, BeyondCnt: beyond(len(s), p)}
	if len(s) == 0 {
		return out
	}
	out.P50Ms = quantile(s, 0.5)
	out.TailMs = quantile(s, p)
	out.MaxMs = s[len(s)-1]
	return out
}

// Block tails: lat_tail_ms splits the measured plans, in send order, into
// consecutive blocks of at least minTailBlock plans (the fewest a p95 with
// 10 beyond needs), an odd number of them and at most maxTailBlocks, and
// reports the median of the blocks' tails. A burst of host load that
// lands in one block moves that block's tail and not the median, where a
// single tail over the whole phase rises with any 5% of plans that meet
// one.
const (
	minTailBlock  = 200
	maxTailBlocks = 5
)

// blockTail returns the median over tail blocks of each block's
// supported tail (see tailPercentile), and the number of blocks.
func blockTail(ms []float64) (tailMs float64, blocks int) {
	blocks = min(maxTailBlocks, len(ms)/minTailBlock)
	if blocks%2 == 0 {
		blocks--
	}
	blocks = max(blocks, 1)
	tails := make([]float64, blocks)
	for k := range tails {
		tails[k] = summarize(ms[k*len(ms)/blocks : (k+1)*len(ms)/blocks]).TailMs
	}
	return median(tails), blocks
}

// median returns the nearest-rank median of xs (NaN when empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// stepScore is how far one ladder step is from its service-level limits,
// normalized so 1 is the boundary: the worst of p95 latency over the
// limit, failed share over maxFailFrac, and final backlog over the allowed
// backlog. A step passes when its score is at most 1.
func stepScore(p95Ms, limitMs, failFrac, backlogEnd, backlogAllow float64) float64 {
	return math.Max(p95Ms/limitMs, math.Max(failFrac/maxFailFrac, backlogEnd/backlogAllow))
}

// maxFailFrac is the failed share a ladder step may have and still pass.
const maxFailFrac = 0.01

// ladderPoint is one measured ladder step, as sloRate needs it.
type ladderPoint struct {
	RateRPS float64
	Score   float64
}

// sloRate interpolates the highest offered rate that meets the limits.
// Steps run in ascending rate and stop at the first failure; the rate is
// interpolated linearly in score between the last passing step and the
// first failing one, so a step that barely fails pulls the answer close to
// its own rate. Rate 0 with score 0 anchors a ladder whose first step
// fails. A ladder that passes everywhere reports its top rate (a floor on
// the true capacity; the report says so).
func sloRate(steps []ladderPoint) (rps float64, saturated bool) {
	last := ladderPoint{}
	for _, st := range steps {
		if st.Score <= 1 {
			last = st
			continue
		}
		frac := (1 - last.Score) / (st.Score - last.Score)
		return last.RateRPS + frac*(st.RateRPS-last.RateRPS), true
	}
	return last.RateRPS, false
}

// objectiveAh is the DP's own objective (dp.Config.TimeWeightAhPerSec
// prices trip time): charge plus time-weighted trip duration. Plans are
// compared on it, never on charge alone — the stitched and monolithic
// solvers can trade tens of mAh of charge against a minute of trip time
// at near-equal objective (DESIGN.md §11).
func objectiveAh(chargeAh, tripSec float64) float64 {
	return chargeAh + timeWeightAhPerSec*tripSec
}

// timeWeightAhPerSec is dp.Config's default TimeWeightAhPerSec, the value
// cloudd serves with (its DP template leaves the field zero).
const timeWeightAhPerSec = 0.0008

// maxObjectiveGapAh bounds how far a served plan's objective may exceed
// the monolithic reference: the charge tolerance the repository's own
// stitch-versus-monolith parity test pins on the paper's route.
const maxObjectiveGapAh = 0.01
