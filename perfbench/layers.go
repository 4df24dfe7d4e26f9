package main

import (
	"context"
	"fmt"
	"sort"

	"evvo/internal/cloud"
)

// measureTraced is the traced run: the workload's measured phase once
// untraced and once traced on the same members, then a serial replay of
// every traced request through the public layer functions, then the
// per-layer metrics. On the open loops the untraced phase is the nominal
// step of the rate ladder, which also yields slo_rps.
func (b *bench) measureTraced(ctx context.Context) error {
	half := b.dur / 2
	var base, traced *phase
	var s0, s1 []cloud.Stats
	var err error
	if b.w.Loop == "open" {
		base = b.ladder(ctx, half)
		if s0, err = b.c.stats(ctx, b.cls); err != nil {
			return err
		}
		traced = b.step(ctx, "traced", 0, b.w.LadderRPS[0], half, b.tr, keepAll)
	} else {
		base, b.nextCall = b.closed(ctx, half, nil, false)
		base.Name = "untraced"
		b.logPhase(base)
		if s0, err = b.c.stats(ctx, b.cls); err != nil {
			return err
		}
		traced, b.nextCall = b.closed(ctx, half, b.tr, true)
		traced.Name = "traced"
		b.logPhase(traced)
	}
	if s1, err = b.c.stats(ctx, b.cls); err != nil {
		return err
	}
	r := &layerReplay{}
	rp, err := newReplayerTimed(ctx, b.tr, &r.buildMs)
	if err != nil {
		return err
	}
	if err := r.run(ctx, b, rp, traced); err != nil {
		return err
	}
	b.layerMetrics(r, base, traced, sumStats(s0), sumStats(s1))
	b.expectations()
	return nil
}

// layerReplay accumulates the replayed per-layer costs of a traced phase.
type layerReplay struct {
	plans                    []layerTimes
	handler, transport, self []float64
	batchEncode, batchDecode []float64
	buildMs, exportMs, impMs []float64
	tableBytes               int
	refs                     int // misses re-solved monolithically
}

// maxRefSolves caps the monolithic reference solves per traced run: the
// reference is the slowest replay step and 40 solves fix its median.
const maxRefSolves = 40

// add records one replayed plan; a miss re-solved monolithically must
// also pass the objective-gap check.
func (r *layerReplay) add(chk *checker, req cloud.Request, lt layerTimes) {
	r.plans = append(r.plans, lt)
	if lt.Ref {
		r.refs++
		if err := gapError(req.DepartTime, lt.GapAh); err != nil {
			chk.fail(err)
		}
	}
}

func (r *layerReplay) run(ctx context.Context, b *bench, rp *replayer, traced *phase) error {
	for _, k := range traced.kept {
		hs, ok := b.tr.handlerSpan(k.root)
		if !ok {
			b.chk.fail(fmt.Errorf("request %d has no handler span", k.root))
			continue
		}
		h := hs.ms()
		inServer := 0.0 // replayed time of the layers the handler ran
		if k.breq == nil {
			lt, err := rp.replayPlan(ctx, b.tr, k.root, k.req, k.resp, r.refs < maxRefSolves)
			if err == nil {
				lt.Codec, err = replayCodec(b.tr, k.root, "single", k.req, k.resp)
			}
			if err != nil {
				b.chk.fail(err)
				continue
			}
			r.add(b.chk, k.req, lt)
			inServer = lt.Codec.ReqDecodeMs + lt.WindowsMs + lt.StitchMs + lt.Codec.EncodeMs
		} else {
			bc, err := replayCodec(b.tr, k.root, "batch", *k.breq, k.batch)
			if err != nil {
				b.chk.fail(err)
				continue
			}
			r.batchEncode = append(r.batchEncode, bc.EncodeMs)
			r.batchDecode = append(r.batchDecode, bc.DecodeMs)
			inServer = bc.ReqDecodeMs + bc.EncodeMs
			for i, it := range k.batch.Results {
				if it.Response == nil {
					continue
				}
				lt, err := rp.replayPlan(ctx, b.tr, k.root, k.breq.Requests[i], it.Response, r.refs < maxRefSolves)
				if err == nil {
					lt.Codec, err = replayCodec(b.tr, k.root, "single", k.breq.Requests[i], it.Response)
				}
				if err != nil {
					b.chk.fail(err)
					continue
				}
				r.add(b.chk, k.breq.Requests[i], lt)
				inServer += lt.WindowsMs + lt.StitchMs
			}
		}
		r.handler = append(r.handler, h)
		r.transport = append(r.transport, k.rootMs-h)
		r.self = append(r.self, h-inServer)
	}
	for i := 0; i < 3; i++ {
		if i > 0 {
			if _, err := newReplayerTimed(ctx, b.tr, &r.buildMs); err != nil {
				return err
			}
		}
		wc, err := rp.replayWire(b.tr)
		if err != nil {
			return fmt.Errorf("replaying the table wire: %w", err)
		}
		r.tableBytes = wc.Bytes
		r.exportMs = append(r.exportMs, wc.ExportMs)
		r.impMs = append(r.impMs, wc.ImportMs)
	}
	return nil
}

// newReplayerTimed builds segment tables as the server does and records
// how long the build took.
func newReplayerTimed(ctx context.Context, tr *tracer, into *[]float64) (*replayer, error) {
	var rp *replayer
	var err error
	ms := tr.timed(0, "replay.dp.build_tables", func() { rp, err = newReplayer(ctx) })
	*into = append(*into, ms)
	return rp, err
}

// sumStats adds the members' counters; the cluster block is summed too.
func sumStats(st []cloud.Stats) cloud.Stats {
	var out cloud.Stats
	out.Cluster = &cloud.ClusterStats{}
	for _, s := range st {
		out.Requests += s.Requests
		out.CacheHits += s.CacheHits
		out.Errors += s.Errors
		out.Shed += s.Shed
		out.Degraded += s.Degraded
		out.DPFullSolves += s.DPFullSolves
		out.DPSegmentSolves += s.DPSegmentSolves
		out.StitchedServes += s.StitchedServes
		out.BatchItems += s.BatchItems
		out.LatencyMs.Count += s.LatencyMs.Count
		if c := s.Cluster; c != nil {
			out.Cluster.Forwards += c.Forwards
			out.Cluster.ForwardFails += c.ForwardFails
			out.Cluster.TableFetches += c.TableFetches
			out.Cluster.HedgedFetches += c.HedgedFetches
			out.Cluster.ReplicasPushed += c.ReplicasPushed
			out.Cluster.BreakerOpens += c.BreakerOpens
			out.Cluster.Takeovers += c.Takeovers
		}
	}
	return out
}

// plansServed is the number of plans a members' counter snapshot has
// served: batch items on the batch workload, optimize calls otherwise.
func (b *bench) plansServed(s cloud.Stats) int64 {
	if b.w.BatchSize > 0 {
		return s.BatchItems
	}
	return s.Requests
}

func (b *bench) layerMetrics(r *layerReplay, base, traced *phase, s0, s1 cloud.Stats) {
	m := b.rep.Metrics
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	var stitch, opt, windows, stitchKB, optKB, states []float64
	var reqBytes, respBytes, respEnc, respDec []float64
	for _, lt := range r.plans {
		reqBytes = append(reqBytes, float64(lt.Codec.ReqBytes))
		respBytes = append(respBytes, float64(lt.Codec.RespBytes))
		respEnc = append(respEnc, lt.Codec.EncodeMs)
		respDec = append(respDec, lt.Codec.DecodeMs)
		if !lt.Miss {
			continue
		}
		stitch = append(stitch, lt.StitchMs)
		windows = append(windows, lt.WindowsMs)
		stitchKB = append(stitchKB, lt.StitchAllocKB)
		states = append(states, float64(lt.States))
		if lt.Ref {
			opt = append(opt, lt.OptMs)
			optKB = append(optKB, lt.OptAllocKB)
		}
	}
	b.printf("replayed %d plans (%d misses) of %d traced calls", len(r.plans), len(stitch), len(r.handler))

	set("dp.stitch_p50_ms", med0(stitch), "ms")
	set("dp.stitch_tail_ms", summarize(stitch).TailMs, "ms")
	set("dp.optimize_p50_ms", med0(opt), "ms")
	ratio := 0.0
	if len(opt) > 0 {
		ratio = median(stitch) / median(opt)
	}
	set("dp.stitch_over_optimize", ratio, "ratio")
	set("dp.windows_ms", med0(windows), "ms")
	set("dp.stitch_alloc_kb", med0(stitchKB), "KiB")
	set("dp.optimize_alloc_kb", med0(optKB), "KiB")
	set("dp.states_expanded_mean", mean(states), "count")
	set("dp.build_tables_ms", med0(r.buildMs), "ms")

	set("wire.table_bytes", float64(r.tableBytes), "B")
	set("wire.export_ms", med0(r.exportMs), "ms")
	set("wire.import_ms", med0(r.impMs), "ms")

	c := s1.Cluster // totals since boot: table traffic happens in set-up
	set("cluster.forwards", float64(c.Forwards), "count")
	set("cluster.forward_fails", float64(c.ForwardFails), "count")
	set("cluster.table_fetches", float64(c.TableFetches), "count")
	set("cluster.hedged_fetches", float64(c.HedgedFetches), "count")
	set("cluster.replicas_pushed", float64(c.ReplicasPushed), "count")
	set("cluster.breaker_opens", float64(c.BreakerOpens), "count")
	set("cluster.takeovers", float64(c.Takeovers), "count")

	set("codec.req_bytes_mean", mean(reqBytes), "B")
	set("codec.resp_bytes_mean", mean(respBytes), "B")
	set("codec.resp_encode_ms", med0(respEnc), "ms")
	set("codec.resp_decode_ms", med0(respDec), "ms")
	set("codec.batch_encode_ms", med0(r.batchEncode), "ms")
	set("codec.batch_decode_ms", med0(r.batchDecode), "ms")

	plans := b.plansServed(s1) - b.plansServed(s0)
	hs := summarize(r.handler)
	set("cloud.handler_p50_ms", hs.P50Ms, "ms")
	set("cloud.handler_tail_ms", hs.TailMs, "ms")
	set("cloud.transport_p50_ms", med0(r.transport), "ms")
	set("cloud.handler_self_ms_mean", mean(r.self), "ms")
	set("cloud.cache_hit_ratio", ratioOf(s1.CacheHits-s0.CacheHits, plans), "ratio")
	reuse := 0.0
	if solves := s1.DPFullSolves + s1.DPSegmentSolves; solves > 0 {
		reuse = float64(b.plansServed(s1)) / float64(solves)
	}
	set("cloud.reuse_factor", reuse, "ratio")
	set("cloud.stitched_serves", float64(s1.StitchedServes-s0.StitchedServes), "count")
	set("cloud.full_solves", float64(s1.DPFullSolves-s0.DPFullSolves), "count")
	set("cloud.segment_solves", float64(s1.DPSegmentSolves-s0.DPSegmentSolves), "count")
	set("cloud.shed", float64(s1.Shed-s0.Shed), "count")
	set("cloud.degraded", float64(s1.Degraded-s0.Degraded), "count")
	set("cloud.errors", float64(s1.Errors-s0.Errors), "count")
	set("cloud.stats_latency_count_ratio", ratioOf(s1.LatencyMs.Count-s0.LatencyMs.Count, plans), "ratio")

	res, n := traced.res, float64(max(traced.OK, 1))
	set("runtime.alloc_kb_per_item", float64(res.m1.TotalAlloc-res.m0.TotalAlloc)/1024/n, "KiB")
	set("runtime.gc_cycles_per_kitem", float64(res.m1.NumGC-res.m0.NumGC)*1000/n, "count")
	set("runtime.gc_pause_ms", float64(res.m1.PauseTotalNs-res.m0.PauseTotalNs)/1e6, "ms")
	set("runtime.goroutines_peak", float64(res.goroutinesPeak), "count")

	lag := append([]float64(nil), traced.sendLag...)
	sort.Float64s(lag)
	lagP95 := 0.0
	if len(lag) > 0 {
		lagP95 = quantile(lag, 0.95)
	}
	set("load.send_lag_p95_ms", lagP95, "ms")
	set("load.backlog_peak", float64(traced.BacklogPeak), "count")

	overhead := 0.0
	if base.Latency.P50Ms > 0 {
		overhead = (traced.Latency.P50Ms - base.Latency.P50Ms) / base.Latency.P50Ms
	}
	set("trace.overhead_frac", overhead, "frac")
	b.rep.Extra["traced_plans"] = metric{float64(plans), "count"}
}

// expectations prints how the traced phase compares with what the
// workload was designed to exercise. They are reported, not enforced.
func (b *bench) expectations() {
	m := b.rep.Metrics
	hit := m["cloud.cache_hit_ratio"].Value
	solves := m["cloud.full_solves"].Value + m["cloud.segment_solves"].Value + m["cloud.stitched_serves"].Value
	switch b.w.Name {
	case "rush-hour-hot":
		b.printf("expect cache_hit_ratio > 0.999 and no solves: %.5f, %g solves (%s)", hit, solves, verdict(hit > 0.999 && solves == 0))
	case "commute-spread":
		b.printf("expect cache_hit_ratio < 0.05: %.5f (%s)", hit, verdict(hit < 0.05))
	}
}

func verdict(ok bool) string {
	if ok {
		return "met"
	}
	return "NOT MET"
}

// med0 is the median, or 0 when the layer did no work in the phase.
func med0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func ratioOf(a, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(a) / float64(n)
}
