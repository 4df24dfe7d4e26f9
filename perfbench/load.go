package main

import (
	"context"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"evvo/internal/cloud"
)

// newClients returns one client per member. They share one transport, so
// the generator holds keep-alive connections for at most conns requests
// in flight per member, and never retry: every failure is counted.
func newClients(urls []string, tr *tracer) ([]*cloud.Client, *http.Transport, error) {
	tp := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute}
	var rt http.RoundTripper = tp
	if tr != nil {
		rt = traceTransport{next: tp}
	}
	hc := &http.Client{Transport: rt, Timeout: 60 * time.Second}
	out := make([]*cloud.Client, len(urls))
	for i, u := range urls {
		c, err := cloud.NewClient(u, cloud.WithHTTPClient(hc), cloud.WithRetryPolicy(cloud.RetryPolicy{MaxAttempts: 1}))
		if err != nil {
			return nil, nil, err
		}
		out[i] = c
	}
	return out, tp, nil
}

// phase is one measured stretch of load and everything observed in it.
type phase struct {
	Name     string  `json:"name"`
	RateRPS  float64 `json:"rateRps,omitempty"`
	Sent     int     `json:"sent"`
	OK       int     `json:"succeeded"`
	Failed   int     `json:"failed"`
	Degraded int     `json:"degraded"`
	Hits     int     `json:"cacheHitsSeen"`
	// Dropped counts open-loop requests the generator never sent: due in
	// the step but still queued when the step's drain budget ran out.
	Dropped     int            `json:"dropped,omitempty"`
	BacklogEnd  int            `json:"backlogEnd,omitempty"`
	BacklogPeak int            `json:"backlogPeak,omitempty"`
	Latency     latencySummary `json:"latency"`
	P95Ms       float64        `json:"p95Ms"`
	Score       float64        `json:"score,omitempty"`
	ElapsedSec  float64        `json:"elapsedSec"`

	lat     []float64 // ms per succeeded plan
	sendLag []float64 // ms, open loop
	kept    []kept
	res     resources
}

// kept is a retained answer: for the objective sample, or for replay.
type kept struct {
	idx    int // job index (open loop) or call number (closed loop)
	root   uint64
	rootMs float64 // the client call's round trip
	req    cloud.Request
	resp   *cloud.Response
	breq   *cloud.BatchRequest
	batch  *cloud.BatchResponse
}

// resources are process-wide counters sampled over a phase.
type resources struct {
	cpuMs    float64
	heapPeak uint64 // the highest sample
	// heapWindows holds each whole heapWindow's highest sample.
	heapWindows    []float64
	goroutinesPeak int
	m0, m1         runtime.MemStats
}

func cpuMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// heapWindow is the stretch over which watch takes each heap peak.
const heapWindow = time.Second

// watch samples heap in use and goroutines until stop is closed; the
// returned function stops it, waits for it and fills res. It collects
// garbage first, as testing.B does, so the phase's heap peak is its own
// and not whatever set-up or the previous phase left uncollected. The
// samples come from runtime/metrics, which unlike ReadMemStats does not
// stop the world: on a VM whose vCPUs the host pauses, a stop-the-world
// every 25 ms waited for the paused vCPU and put those pauses into the
// latencies being measured.
func watch(res *resources) func() {
	runtime.GC()
	runtime.ReadMemStats(&res.m0)
	c0 := cpuMs()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(25 * time.Millisecond)
		defer t.Stop()
		samples := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		w0, wPeak := time.Now(), uint64(0)
		for {
			metrics.Read(samples)
			// Objects plus unused bytes in in-use spans is MemStats.HeapInuse.
			h := samples[0].Value.Uint64() + samples[1].Value.Uint64()
			res.heapPeak, wPeak = max(res.heapPeak, h), max(wPeak, h)
			if time.Since(w0) >= heapWindow {
				res.heapWindows = append(res.heapWindows, float64(wPeak))
				w0, wPeak = time.Now(), 0
			}
			res.goroutinesPeak = max(res.goroutinesPeak, runtime.NumGoroutine())
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	return func() {
		close(stop)
		<-done
		res.cpuMs = cpuMs() - c0
		runtime.ReadMemStats(&res.m1)
		res.heapPeak = max(res.heapPeak, res.m1.HeapInuse)
		if len(res.heapWindows) == 0 {
			res.heapWindows = []float64{float64(res.heapPeak)}
		}
	}
}

// runOpen drives one open-loop step: jobs are released at their due
// times to conns client goroutines in FIFO order, so a slow answer delays
// later sends exactly as a queue of independent vehicles would. Latency
// runs from the due time. A job still queued drainBudget after the step
// ends is dropped.
func runOpen(ctx context.Context, cl *cloud.Client, jobs []job, stepDur, drainBudget time.Duration,
	tr *tracer, sink *checker, keep func(i int) bool) *phase {
	p := &phase{}
	// Answers are checked and dropped as they arrive; only the kept ones
	// stay referenced, so the generator's heap does not grow with the run.
	type rec struct {
		start, end                     time.Duration
		sent, failed, degraded, cached bool
	}
	recs := make([]rec, len(jobs))
	var mu sync.Mutex // guards p.kept
	var next, started atomic.Int64
	stopRes := watch(&p.res)
	t0 := time.Now()
	cutoff := stepDur + drainBudget

	samplerStop, samplerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(samplerDone)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			now := time.Since(t0)
			due := sort.Search(len(jobs), func(i int) bool { return jobs[i].Due > now })
			p.BacklogPeak = max(p.BacklogPeak, due-int(started.Load()))
			select {
			case <-samplerStop:
				return
			case <-t.C:
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				if d := jobs[i].Due - time.Since(t0); d > 0 {
					t := time.NewTimer(d)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
						return
					}
				}
				start := time.Since(t0)
				if start > cutoff {
					return
				}
				started.Add(1)
				cctx := ctx
				var root uint64
				if tr != nil {
					root = tr.newID()
					cctx = withTrace(ctx, root)
				}
				resp, err := cl.Optimize(cctx, jobs[i].Req)
				end := time.Since(t0)
				if tr != nil {
					tr.add(span{Trace: root, ID: root, Name: "client.optimize",
						StartNs: tr.since(t0.Add(start)), EndNs: tr.since(t0.Add(end))})
				}
				r := rec{start: start, end: end, sent: true, failed: err != nil}
				if err == nil {
					sink.check(resp)
					r.degraded, r.cached = resp.Degraded, resp.Cached
					if keep(i) {
						mu.Lock()
						p.kept = append(p.kept, kept{idx: i, root: root, rootMs: msOf(end - start), req: jobs[i].Req, resp: resp})
						mu.Unlock()
					}
				}
				recs[i] = r
			}
		}()
	}
	wg.Wait()
	close(samplerStop)
	<-samplerDone
	stopRes()
	p.ElapsedSec = time.Since(t0).Seconds()

	all := make([]float64, 0, len(jobs)) // failed and dropped count as missed
	for i, r := range recs {
		if !r.sent {
			p.Dropped++
			p.BacklogEnd++
			all = append(all, missedMs)
			continue
		}
		p.Sent++
		if r.start > stepDur {
			p.BacklogEnd++
		}
		p.sendLag = append(p.sendLag, msOf(r.start-jobs[i].Due))
		if r.failed {
			p.Failed++
			all = append(all, missedMs)
			continue
		}
		p.OK++
		if r.degraded {
			p.Degraded++
		}
		if r.cached {
			p.Hits++
		}
		l := msOf(r.end - jobs[i].Due)
		p.lat = append(p.lat, l)
		all = append(all, l)
	}
	sort.Slice(p.kept, func(a, b int) bool { return p.kept[a].idx < p.kept[b].idx })
	p.Latency = summarize(p.lat)
	sort.Float64s(all)
	if len(all) > 0 {
		p.P95Ms = quantile(all, 0.95)
	}
	return p
}

// runClosed drives the fleet's closed loop through calls batch calls:
// conns clients each send their next call as soon as the previous one
// returns, call i going to member i mod N. Every item's latency is its
// call's round trip. No call starts after cutoff. firstCall numbers the
// calls so every phase gets fresh departures.
func runClosed(ctx context.Context, cls []*cloud.Client, seed int64, firstCall, calls, size int, cutoff time.Duration,
	tr *tracer, sink *checker, keepAll bool) (*phase, int) {
	p := &phase{}
	var mu sync.Mutex // guards p and last
	var last time.Duration
	var next atomic.Int64
	stopRes := watch(&p.res)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Since(t0) < cutoff {
				k := int(next.Add(1) - 1)
				if k >= calls {
					return
				}
				call := firstCall + k
				req := fleetBatch(seed, call, size)
				cctx := ctx
				var root uint64
				if tr != nil {
					root = tr.newID()
					cctx = withTrace(ctx, root)
				}
				start := time.Since(t0)
				resp, err := cls[call%len(cls)].OptimizeBatch(cctx, req)
				end := time.Since(t0)
				if tr != nil {
					tr.add(span{Trace: root, ID: root, Name: "client.optimize_batch",
						StartNs: tr.since(t0.Add(start)), EndNs: tr.since(t0.Add(end))})
				}
				l := msOf(end - start)
				mu.Lock()
				last = max(last, end)
				p.Sent += len(req.Requests)
				if err != nil || len(resp.Results) != len(req.Requests) {
					p.Failed += len(req.Requests)
					mu.Unlock()
					continue
				}
				sample := streamRNG(seed, streamSample, uint64(call)).Intn(len(req.Requests))
				for k, it := range resp.Results {
					if it.Error != "" || it.Response == nil {
						p.Failed++
						continue
					}
					sink.check(it.Response)
					p.OK++
					p.lat = append(p.lat, l)
					if it.Response.Degraded {
						p.Degraded++
					}
					if it.Response.Cached {
						p.Hits++
					}
					if !keepAll && k == sample {
						p.kept = append(p.kept, kept{idx: call, req: req.Requests[k], resp: it.Response})
					}
				}
				if keepAll {
					p.kept = append(p.kept, kept{idx: call, root: root, rootMs: l, breq: &req, batch: resp})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	stopRes()
	p.Dropped = (calls - min(int(next.Load()), calls)) * size
	sort.Slice(p.kept, func(a, b int) bool { return p.kept[a].idx < p.kept[b].idx })
	p.ElapsedSec = last.Seconds()
	p.Latency = summarize(p.lat)
	if len(p.lat) > 0 {
		s := append([]float64(nil), p.lat...)
		sort.Float64s(s)
		p.P95Ms = quantile(s, 0.95)
	}
	return p, firstCall + min(int(next.Load()), calls)
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// missedMs stands in for the latency of a request that failed or was
// never sent: it misses any limit, and stays a finite number in reports.
const missedMs = math.MaxFloat64
