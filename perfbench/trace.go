package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"evvo/internal/cloud"
	"evvo/internal/dp"
	"evvo/internal/ev"
	"evvo/internal/queue"
	"evvo/internal/road"
)

// Spans live only in this benchmark's code: a root span around each
// cloud.Client call, a handler span around each member's public
// Server.Handler() joined to the root by traceHeader, and replay spans
// around the public layer functions re-run serially after the traced
// phase. Spans stay in memory and are written out when the run ends.

// traceHeader carries the root span's ID from the generator to the
// handler span of the member that serves the call.
const traceHeader = "X-Perfbench-Trace"

type span struct {
	Trace   uint64 `json:"trace"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	Node    string `json:"node,omitempty"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
}

func (s span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
	// handler maps a root span ID to its handler span.
	handler map[uint64]span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), handler: map[uint64]span{}}
}

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

// since is the tracer clock: nanoseconds since the run started.
func (t *tracer) since(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	if s.Name == "cloud.handler" {
		t.handler[s.Parent] = s
	}
	t.mu.Unlock()
}

// timed runs f inside a span named name under the root trace.
func (t *tracer) timed(trace uint64, name string, f func()) float64 {
	start := time.Now()
	f()
	end := time.Now()
	s := span{Trace: trace, ID: t.newID(), Parent: trace, Name: name, StartNs: t.since(start), EndNs: t.since(end)}
	t.add(s)
	return s.ms()
}

func (t *tracer) handlerSpan(root uint64) (span, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.handler[root]
	return s, ok
}

// write stores every span as one JSON line under dir.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

type traceKey struct{}

func withTrace(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, traceKey{}, id)
}

// traceTransport stamps the root span's ID on outgoing requests.
type traceTransport struct{ next http.RoundTripper }

func (t traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(traceKey{}).(uint64); ok {
		req = req.Clone(req.Context())
		req.Header.Set(traceHeader, strconv.FormatUint(id, 10))
	}
	return t.next.RoundTrip(req)
}

// handlerWrap returns the wrap function startCluster applies to each
// member: with a tracer, a span around the member's whole handler for
// every request carrying traceHeader.
func handlerWrap(tr *tracer) func(string, http.Handler) http.Handler {
	return func(nodeID string, h http.Handler) http.Handler {
		if tr == nil {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			v := r.Header.Get(traceHeader)
			if v == "" {
				h.ServeHTTP(w, r)
				return
			}
			root, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				h.ServeHTTP(w, r)
				return
			}
			start := time.Now()
			h.ServeHTTP(w, r)
			end := time.Now()
			tr.add(span{Trace: root, ID: tr.newID(), Parent: root, Name: "cloud.handler", Node: nodeID,
				StartNs: tr.since(start), EndNs: tr.since(end)})
		})
	}
}

// replayer re-runs served requests through the public layer functions on
// the path the server took, with the server's own configuration: its
// segment tables (built here the way the server builds them), its
// constant arrival rate, its trip budget and horizon.
type replayer struct {
	route  *road.Route
	tables *dp.RouteTables
	vin    float64
}

// maxTripSec is the trip budget the server fills in when its DP template
// leaves it zero; the window horizon runs 120 s past it.
const maxTripSec = 600

func (rp *replayer) tableConfig() dp.Config {
	return dp.Config{Route: rp.route, Vehicle: ev.SparkEV(), MaxTripSec: maxTripSec}
}

func newReplayer(ctx context.Context) (*replayer, error) {
	rp := &replayer{route: road.US25(), vin: queue.VehPerHour(153)}
	rt, err := dp.BuildRouteTables(ctx, rp.tableConfig())
	if err != nil {
		return nil, fmt.Errorf("building replay tables: %w", err)
	}
	rp.tables = rt
	return rp, nil
}

func (rp *replayer) config(depart float64, wf dp.WindowsFunc) dp.Config {
	cfg := rp.tableConfig()
	cfg.DepartTime = depart
	cfg.Windows = wf
	return cfg
}

// windows builds the queue-aware windows for a departure and evaluates
// them at every signal up front, so the window layer's whole cost lands
// here and the solver only looks the results up.
func (rp *replayer) windows(depart float64) dp.WindowsFunc {
	vin := rp.vin
	wf, err := dp.QueueAwareWindows(queue.US25Params(), func(road.Control) float64 { return vin },
		depart, depart+maxTripSec+120)
	if err != nil {
		panic(err) // US25Params is a constant the server validates at start-up
	}
	memo := map[road.Control][]queue.Window{}
	for _, c := range rp.route.Signals() {
		memo[c] = wf(c)
	}
	return func(c road.Control) []queue.Window {
		if ws, ok := memo[c]; ok {
			return ws
		}
		return wf(c)
	}
}

// layerTimes is one replayed plan's per-layer cost.
type layerTimes struct {
	Miss, Ref                  bool // a cache miss; re-solved monolithically too
	WindowsMs, StitchMs, OptMs float64
	StitchAllocKB, OptAllocKB  float64
	States                     int
	GapAh                      float64
	Codec                      codecCost
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// replayPlan replays the dp layers of one served plan. A miss runs
// windows then the stitch the server ran, and must reproduce the served
// charge and trip time bit for bit; with withRef the monolithic solve
// follows as the reference. A cache hit ran no dp layer.
func (rp *replayer) replayPlan(ctx context.Context, tr *tracer, root uint64, req cloud.Request, served *cloud.Response, withRef bool) (layerTimes, error) {
	var lt layerTimes
	if served.Cached {
		return lt, nil
	}
	lt.Miss = true
	var wf dp.WindowsFunc
	lt.WindowsMs = tr.timed(root, "replay.dp.windows", func() { wf = rp.windows(req.DepartTime) })
	cfg := rp.config(req.DepartTime, wf)

	var res *dp.Result
	var err error
	a0 := totalAlloc()
	lt.StitchMs = tr.timed(root, "replay.dp.stitch", func() { res, err = rp.tables.StitchCtx(ctx, cfg) })
	lt.StitchAllocKB = float64(totalAlloc()-a0) / 1024
	if err != nil {
		return lt, fmt.Errorf("replayed stitch at %.3f s: %w", req.DepartTime, err)
	}
	if math.Float64bits(res.ChargeAh) != math.Float64bits(served.ChargeAh) ||
		math.Float64bits(res.TripSec) != math.Float64bits(served.TripSec) {
		return lt, fmt.Errorf("replay at depart %.3f s gives %v Ah / %v s, server served %v Ah / %v s",
			req.DepartTime, res.ChargeAh, res.TripSec, served.ChargeAh, served.TripSec)
	}
	lt.States = res.StatesExpanded
	if !withRef {
		return lt, nil
	}
	lt.Ref = true

	var ref *dp.Result
	a0 = totalAlloc()
	lt.OptMs = tr.timed(root, "replay.dp.optimize", func() { ref, err = dp.OptimizeCtx(ctx, cfg) })
	lt.OptAllocKB = float64(totalAlloc()-a0) / 1024
	if err != nil {
		return lt, fmt.Errorf("reference solve at %.3f s: %w", req.DepartTime, err)
	}
	lt.GapAh = objectiveAh(served.ChargeAh, served.TripSec) - objectiveAh(ref.ChargeAh, ref.TripSec)
	return lt, nil
}

// codecCost is one exchange's JSON work, replayed: the server's strict
// request decode and response encode (writeJSON's json.Encoder) and the
// client's response decode.
type codecCost struct {
	ReqBytes, RespBytes             int
	ReqDecodeMs, EncodeMs, DecodeMs float64
}

// replayCodec replays the JSON work of one exchange; kind ("single" or
// "batch") names its spans.
func replayCodec[Req, Resp any](tr *tracer, root uint64, kind string, req Req, served *Resp) (codecCost, error) {
	var cc codecCost
	body, err := json.Marshal(req)
	if err != nil {
		return cc, err
	}
	cc.ReqBytes = len(body)
	var got Req
	cc.ReqDecodeMs = tr.timed(root, "replay.codec."+kind+".req_decode", func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&got)
	})
	if err != nil {
		return cc, err
	}
	var buf bytes.Buffer
	cc.EncodeMs = tr.timed(root, "replay.codec."+kind+".encode", func() { err = json.NewEncoder(&buf).Encode(served) })
	if err != nil {
		return cc, err
	}
	cc.RespBytes = buf.Len()
	var back Resp
	cc.DecodeMs = tr.timed(root, "replay.codec."+kind+".decode", func() { err = json.NewDecoder(&buf).Decode(&back) })
	return cc, err
}

// wireCost is the gob table exchange between cluster members, replayed:
// export and encode on the sender, decode and verified import on the
// receiver.
type wireCost struct {
	Bytes              int
	ExportMs, ImportMs float64
}

func (rp *replayer) replayWire(tr *tracer) (wireCost, error) {
	var wc wireCost
	var buf bytes.Buffer
	var err error
	wc.ExportMs = tr.timed(0, "replay.wire.export", func() { err = gob.NewEncoder(&buf).Encode(rp.tables.Export()) })
	if err != nil {
		return wc, err
	}
	wc.Bytes = buf.Len()
	wc.ImportMs = tr.timed(0, "replay.wire.import", func() {
		var w dp.TablesWire
		if err = gob.NewDecoder(&buf).Decode(&w); err == nil {
			_, err = dp.ImportRouteTables(rp.tableConfig(), &w)
		}
	})
	return wc, err
}
