package main

import (
	"context"
	"fmt"
	"math"

	"evvo/internal/cloud"
	"evvo/internal/dp"
)

// checkPlan is the per-plan correctness gate: a drivable trajectory whose
// time and position never run backwards and which ends at the route's
// end, a finite charge and trip time equal to the trajectory's duration,
// and every signal arrival inside its window unless the plan says it is
// penalized.
func checkPlan(r *cloud.Response, routeLenM float64) error {
	if len(r.Profile) < 2 {
		return fmt.Errorf("profile has %d points", len(r.Profile))
	}
	for i := 1; i < len(r.Profile); i++ {
		a, b := r.Profile[i-1], r.Profile[i]
		if b.T < a.T || b.Pos < a.Pos {
			return fmt.Errorf("profile runs backwards at point %d: (t %.3f, pos %.3f) after (t %.3f, pos %.3f)",
				i, b.T, b.Pos, a.T, a.Pos)
		}
	}
	first, last := r.Profile[0], r.Profile[len(r.Profile)-1]
	if first.Pos != 0 || math.Abs(last.Pos-routeLenM) > 1 {
		return fmt.Errorf("profile spans %.1f–%.1f m, route is %.1f m", first.Pos, last.Pos, routeLenM)
	}
	if math.IsNaN(r.ChargeAh) || math.IsInf(r.ChargeAh, 0) {
		return fmt.Errorf("charge %v is not finite", r.ChargeAh)
	}
	if !(r.TripSec > 0) || math.Abs(r.TripSec-(last.T-first.T)) > 1e-6 {
		return fmt.Errorf("trip %.3f s disagrees with the profile's %.3f s", r.TripSec, last.T-first.T)
	}
	for _, a := range r.Arrivals {
		if !a.InWindow && !r.Penalized {
			return fmt.Errorf("arrival at %s (%.1f s) outside its window on an unpenalized plan", a.Name, a.ArrivalSec)
		}
	}
	return nil
}

// gapError reports a served plan whose objective exceeds the monolithic
// reference by more than maxObjectiveGapAh, and nil otherwise.
func gapError(depart, gapAh float64) error {
	if gapAh <= maxObjectiveGapAh {
		return nil
	}
	return fmt.Errorf("served plan departing %.3f s costs %.2f mAh more than the monolithic DP (limit %.0f mAh)",
		depart, gapAh*1000, maxObjectiveGapAh*1000)
}

// costGap compares one served plan with the monolithic DP run on the
// request the plan was computed for. That request departs at the plan's
// first sample: for a miss it is the client's own, for a cache hit the
// one that filled the bucket — bucket sharing is the cache's documented
// design, not a solver gap. gapAh is served minus reference objective.
func costGap(ctx context.Context, rp *replayer, r *cloud.Response) (gapAh, ratio float64, err error) {
	depart := r.Profile[0].T
	ref, err := dp.OptimizeCtx(ctx, rp.config(depart, rp.windows(depart)))
	if err != nil {
		return 0, 0, fmt.Errorf("reference solve at %.3f s: %w", depart, err)
	}
	served := objectiveAh(r.ChargeAh, r.TripSec)
	want := objectiveAh(ref.ChargeAh, ref.TripSec)
	return served - want, served / want, nil
}
