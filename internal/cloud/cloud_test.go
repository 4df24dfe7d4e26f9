package cloud

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"evvo/internal/dp"
	"evvo/internal/ev"
	"evvo/internal/road"
)

// coarseDP keeps optimizer runs fast in tests.
func coarseDP() dp.Config {
	return dp.Config{DsM: 100, DvMS: 1, DtSec: 2, MaxTripSec: 600}
}

func newTestServer(t *testing.T) (*Server, *httptest.Server, *Client) {
	t.Helper()
	// Generous admission headroom: these tests exercise the API surface,
	// not load shedding (chaos_test.go covers that with tight limits).
	s, err := NewServer(ServerConfig{DPTemplate: coarseDP(), MaxInFlight: 32})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return s, ts, c
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{Vehicle: ev.Params{MassKg: -1}}); err == nil {
		t.Fatal("invalid vehicle accepted")
	}
	if _, err := NewServer(ServerConfig{CacheDepartBucketSec: -1}); err == nil {
		t.Fatal("negative bucket accepted")
	}
	coarse := coarseDP()
	coarse.CoarseRefine = dp.CoarseRefine{Factor: 2}
	if _, err := NewServer(ServerConfig{DPTemplate: coarse, SegmentTables: true}); err == nil {
		t.Fatal("segment tables accepted with a CoarseRefine template")
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient(""); err == nil {
		t.Fatal("empty URL accepted")
	}
}

func TestHealthAndRoutes(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	routes, err := c.Routes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 1 || routes[0] != "us25" {
		t.Fatalf("routes = %v, want [us25]", routes)
	}
}

func TestOptimizeQueueAware(t *testing.T) {
	_, _, c := newTestServer(t)
	resp, err := c.Optimize(context.Background(), Request{Route: "us25"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Penalized {
		t.Fatalf("queue-aware plan penalized: %+v", resp.Arrivals)
	}
	if len(resp.Arrivals) != 2 {
		t.Fatalf("arrivals = %+v, want 2 signals", resp.Arrivals)
	}
	if resp.ChargeAh <= 0 || resp.TripSec <= 0 {
		t.Fatalf("charge %v / trip %v not positive", resp.ChargeAh, resp.TripSec)
	}
	prof, err := resp.ToProfile()
	if err != nil {
		t.Fatal(err)
	}
	if prof.Distance() < 4199 {
		t.Fatalf("profile distance %v, want 4200", prof.Distance())
	}
}

func TestOptimizeVariants(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()
	for _, v := range []Variant{VariantQueueAware, VariantGreen, VariantUnconstrained} {
		resp, err := c.Optimize(ctx, Request{Route: "us25", Variant: v})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		// Arrivals are always reported as diagnostics; when unconstrained
		// they are all trivially in-window.
		if v == VariantUnconstrained {
			for _, a := range resp.Arrivals {
				if !a.InWindow {
					t.Fatalf("unconstrained arrival flagged out-of-window: %+v", a)
				}
			}
		}
	}
}

func TestOptimizeCaching(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()
	req := Request{Route: "us25", DepartTime: 12}
	r1, err := c.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Fatal("first request served from cache")
	}
	r2, err := c.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("identical request not served from cache")
	}
	if r2.ChargeAh != r1.ChargeAh || r2.TripSec != r1.TripSec {
		t.Fatal("cached response differs")
	}
	// Same 5 s bucket: still cached.
	r3, err := c.Optimize(ctx, Request{Route: "us25", DepartTime: 13})
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Cached {
		t.Fatal("same-bucket request not cached")
	}
	// Different variant: not cached.
	r4, err := c.Optimize(ctx, Request{Route: "us25", DepartTime: 12, Variant: VariantGreen})
	if err != nil {
		t.Fatal(err)
	}
	if r4.Cached {
		t.Fatal("different variant served from cache")
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests < 4 || st.CacheHits < 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheEviction(t *testing.T) {
	s, err := NewServer(ServerConfig{DPTemplate: coarseDP(), MaxCacheEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, depart := range []float64{0, 10, 20} { // three distinct buckets
		if _, err := c.Optimize(ctx, Request{Route: "us25", DepartTime: depart}); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	n := len(s.cache)
	s.mu.Unlock()
	if n > 2 {
		t.Fatalf("cache grew to %d entries, cap 2", n)
	}
	// The oldest entry (depart 0) was evicted: re-requesting recomputes.
	r, err := c.Optimize(ctx, Request{Route: "us25", DepartTime: 0})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cached {
		t.Fatal("evicted entry served from cache")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts, c := newTestServer(t)
	ctx := context.Background()
	var apiErr *APIError

	_, err := c.Optimize(ctx, Request{Route: "nowhere"})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("unknown route: %v", err)
	}
	_, err = c.Optimize(ctx, Request{Route: "us25", Variant: "warp-speed"})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("unknown variant: %v", err)
	}
	_, err = c.Optimize(ctx, Request{Route: "us25", DepartTime: -5})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("negative depart: %v", err)
	}
	_, err = c.Optimize(ctx, Request{Route: "us25", ArrivalRateVehPerHour: -1})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("negative rate: %v", err)
	}

	// Malformed JSON and unknown fields.
	for _, body := range []string{"{not json", `{"route":"us25","bogus":1}`} {
		resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/optimize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET optimize: status %d, want 405", resp.StatusCode)
	}
}

func TestRegisterRoute(t *testing.T) {
	s, ts, c := newTestServer(t)
	short, err := road.NewRoute(road.RouteConfig{LengthM: 900, DefaultMaxMS: 15})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterRoute("short", short); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterRoute("short", short); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := s.RegisterRoute("", nil); err == nil {
		t.Fatal("empty registration accepted")
	}
	_ = ts
	resp, err := c.Optimize(context.Background(), Request{Route: "short", Variant: VariantUnconstrained})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Profile[len(resp.Profile)-1].Pos; got != 900 {
		t.Fatalf("profile ends at %v, want 900", got)
	}
}

func TestConcurrentOptimize(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := c.Optimize(ctx, Request{Route: "us25", DepartTime: float64(i % 4 * 30)})
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestArrivalRateOverrideChangesWindows(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()
	light, err := c.Optimize(ctx, Request{Route: "us25", ArrivalRateVehPerHour: 20})
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := c.Optimize(ctx, Request{Route: "us25", ArrivalRateVehPerHour: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if light.Cached || heavy.Cached {
		t.Fatal("distinct rates should not share cache entries")
	}
	// Heavier queues shrink the admissible window, so arrivals differ or
	// the trajectory changes; at minimum the plans are not byte-identical.
	lb, _ := json.Marshal(light.Profile)
	hb, _ := json.Marshal(heavy.Profile)
	if bytes.Equal(lb, hb) {
		t.Fatal("arrival rate had no effect on the plan")
	}
}

func TestStatsErrorsCounted(t *testing.T) {
	_, _, c := newTestServer(t)
	ctx := context.Background()
	_, _ = c.Optimize(ctx, Request{Route: "nowhere"})
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors == 0 {
		t.Fatalf("stats = %+v, want errors counted", st)
	}
}

// TestStatsRobustnessCountersWire pins the /v1/stats wire contract for the
// robustness counters: the field names are API, dashboards key on them.
// (chaos_test.go covers how the counters move under injected faults.)
func TestStatsRobustnessCountersWire(t *testing.T) {
	var predictorDown bool
	s, err := NewServer(ServerConfig{
		DPTemplate:  coarseDP(),
		MaxInFlight: 32,
		Faults: Faults{
			PredictorErr: func() error {
				if predictorDown {
					return errors.New("injected")
				}
				return nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// One degraded response and one shed so the labelled/omitempty fields
	// are populated on the wire.
	predictorDown = true
	if _, err := c.Optimize(ctx, Request{Route: "us25"}); err != nil {
		t.Fatal(err)
	}
	s.shedNow(httptest.NewRecorder())

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()
	for _, key := range []string{
		`"requests"`, `"cacheHits"`, `"errors"`,
		`"shed"`, `"degraded"`, `"degradedByReason"`,
		`"panicsRecovered"`, `"retryAfterIssued"`,
		`"` + DegradedPredictorFallback + `"`,
	} {
		if !strings.Contains(raw, key) {
			t.Fatalf("stats JSON missing %s: %s", key, raw)
		}
	}
	var st Stats
	if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Shed != 1 || st.Degraded != 1 || st.RetryAfterIssued != 1 ||
		st.DegradedByReason[DegradedPredictorFallback] != 1 {
		t.Fatalf("stats = %+v, want shed/degraded/retryAfter = 1", st)
	}
}

func TestAPIErrorString(t *testing.T) {
	e := &APIError{Status: 404, Msg: "gone"}
	if !strings.Contains(e.Error(), "404") || !strings.Contains(e.Error(), "gone") {
		t.Fatalf("error string %q", e.Error())
	}
}

func postJSON(t *testing.T, url, body string) (*http.Response, func()) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp, func() { resp.Body.Close() }
}

func TestAdviseRecommendsBestDeparture(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, cleanup := postJSON(t, ts.URL+"/v1/advise",
		`{"route":"us25","earliestDepart":0,"latestDepart":40,"stepSec":20,"arrivalRateVehPerHour":400}`)
	defer cleanup()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out AdviseResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Options) != 3 {
		t.Fatalf("options = %d, want 3", len(out.Options))
	}
	if out.Best.Penalized {
		t.Fatalf("best option is penalized: %+v", out.Best)
	}
	for _, o := range out.Options {
		if !o.Penalized && o.ChargeAh < out.Best.ChargeAh {
			t.Fatalf("best %+v is not the cheapest clean option (%+v)", out.Best, o)
		}
	}
}

func TestAdviseValidation(t *testing.T) {
	_, ts, _ := newTestServer(t)
	cases := []struct {
		name, body string
		status     int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"inverted window", `{"route":"us25","earliestDepart":50,"latestDepart":0}`, http.StatusBadRequest},
		{"negative step", `{"route":"us25","latestDepart":10,"stepSec":-1}`, http.StatusBadRequest},
		{"too many candidates", `{"route":"us25","earliestDepart":0,"latestDepart":100000,"stepSec":1}`, http.StatusBadRequest},
		{"unknown route", `{"route":"nowhere","latestDepart":10}`, http.StatusNotFound},
		{"bad variant", `{"route":"us25","latestDepart":10,"variant":"ludicrous"}`, http.StatusBadRequest},
		{"negative rate", `{"route":"us25","latestDepart":10,"arrivalRateVehPerHour":-4}`, http.StatusBadRequest},
		// Step counts past 2^63 must not overflow the candidate count.
		{"huge window", `{"route":"us25","latestDepart":1e19,"stepSec":1}`, http.StatusBadRequest},
		{"astronomical window", `{"route":"us25","latestDepart":1e300,"stepSec":1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, cleanup := postJSON(t, ts.URL+"/v1/advise", tc.body)
			defer cleanup()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
		})
	}
	if st := statsOf(t, ts.URL); st.PanicsRecovered != 0 {
		t.Fatalf("validation recovered %d panics, want 0", st.PanicsRecovered)
	}
}

func TestClientAdvise(t *testing.T) {
	_, _, c := newTestServer(t)
	out, err := c.Advise(context.Background(), AdviseRequest{
		Route: "us25", EarliestDepart: 0, LatestDepart: 20, StepSec: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Options) != 3 {
		t.Fatalf("options %d", len(out.Options))
	}
	var apiErr *APIError
	_, err = c.Advise(context.Background(), AdviseRequest{Route: "nowhere", LatestDepart: 10})
	if !errors.As(err, &apiErr) {
		t.Fatalf("unknown route: %v", err)
	}
}
