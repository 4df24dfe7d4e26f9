package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"syscall"
	"testing"
	"time"

	"evvo/internal/cloud"
)

func TestBuildServerServes(t *testing.T) {
	srv, err := buildServer(serverParams{rate: 153, deadline: 30 * time.Second, segTables: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c, err := cloud.NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	routes, err := c.Routes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) == 0 {
		t.Fatal("no routes registered")
	}
}

func TestBuildServerDisabledDeadline(t *testing.T) {
	if _, err := buildServer(serverParams{rate: 153, maxInflight: -1}); err != nil {
		t.Fatalf("deadline/admission disabled: %v", err)
	}
}

func TestBuildServerClusterValidation(t *testing.T) {
	if _, err := buildServer(serverParams{rate: 153, peers: map[string]string{"n2": "http://x"}}); err == nil {
		t.Fatal("-peers without -node-id accepted")
	}
	srv, err := buildServer(serverParams{
		rate: 153, segTables: true,
		nodeID: "n1", peers: map[string]string{"n2": "http://127.0.0.1:1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
}

func TestParsePeers(t *testing.T) {
	got, err := parsePeers("n2=http://a:1, n3=http://b:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["n2"] != "http://a:1" || got["n3"] != "http://b:2" {
		t.Fatalf("parsePeers = %v", got)
	}
	if m, err := parsePeers(""); err != nil || m != nil {
		t.Fatalf("empty flag = %v, %v; want nil, nil", m, err)
	}
	for _, bad := range []string{"n2", "=http://a", "n2=", "n2=http://a,n2=http://b"} {
		if _, err := parsePeers(bad); err == nil {
			t.Fatalf("malformed peer list %q accepted", bad)
		}
	}
}

// TestServeGracefulShutdown pins the drain semantics: a signal must let an
// in-flight request finish and deliver its response (the old Close()
// aborted it mid-body), and serve must then return nil.
func TestServeGracefulShutdown(t *testing.T) {
	inHandler := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
		close(inHandler)
		<-release
		w.Write([]byte("done"))
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: mux}
	stop := make(chan os.Signal, 1)
	served := make(chan error, 1)
	go func() { served <- serve(httpSrv, ln, stop, 5*time.Second, nil) }()

	reqErr := make(chan error, 1)
	gotBody := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			reqErr <- err
			return
		}
		defer resp.Body.Close()
		buf := make([]byte, 16)
		n, _ := resp.Body.Read(buf)
		gotBody <- string(buf[:n])
		reqErr <- nil
	}()

	<-inHandler // request is in flight
	stop <- syscall.SIGTERM
	// Give Shutdown a moment to close the listener, then let the handler
	// finish inside the drain budget.
	time.Sleep(50 * time.Millisecond)
	close(release)

	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned %v, want nil after graceful drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after signal")
	}
	if err := <-reqErr; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	if body := <-gotBody; body != "done" {
		t.Fatalf("in-flight response body = %q, want %q", body, "done")
	}
}

// TestServeDrainFlipsReadinessFirst pins the shutdown ordering: serve must
// invoke beginDrain (which flips /v1/ready to 503) strictly before
// httpSrv.Shutdown closes the listener, so the readiness flip is
// observable over the network while the node still accepts connections —
// that is the window in which a load balancer learns to route elsewhere.
func TestServeDrainFlipsReadinessFirst(t *testing.T) {
	srv, err := buildServer(serverParams{rate: 153, segTables: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	base := "http://" + ln.Addr().String()

	statusOf := func(path string) int {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s during drain window: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	drainChecked := make(chan struct{})
	beginDrain := func() {
		srv.BeginDrain()
		// serve has not called Shutdown yet, so the listener still accepts:
		// readiness must already fail while liveness still passes.
		if got := statusOf("/v1/ready"); got != http.StatusServiceUnavailable {
			t.Errorf("/v1/ready = %d after BeginDrain, want 503", got)
		}
		if got := statusOf("/v1/health"); got != http.StatusOK {
			t.Errorf("/v1/health = %d during drain, want 200 (drain is not death)", got)
		}
		close(drainChecked)
	}

	stop := make(chan os.Signal, 1)
	served := make(chan error, 1)
	go func() { served <- serve(httpSrv, ln, stop, 5*time.Second, beginDrain) }()

	// Wait until the server answers, then signal.
	for i := 0; ; i++ {
		if resp, err := http.Get(base + "/v1/ready"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if i > 100 {
			t.Fatal("server never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop <- syscall.SIGTERM
	<-drainChecked
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned %v after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after signal")
	}
}

// TestServeDrainBudgetExpires: a handler that outlives the drain budget is
// cut off, but serve still returns (no hang).
func TestServeDrainBudgetExpires(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	mux := http.NewServeMux()
	started := make(chan struct{})
	mux.HandleFunc("/stuck", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		select {
		case <-block:
		case <-r.Context().Done():
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: mux}
	stop := make(chan os.Signal, 1)
	served := make(chan error, 1)
	go func() { served <- serve(httpSrv, ln, stop, 50*time.Millisecond, nil) }()

	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/stuck")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	stop <- syscall.SIGTERM
	select {
	case <-served:
		// Close()'s error (if any) is acceptable; returning is the point.
	case <-time.After(10 * time.Second):
		t.Fatal("serve hung past the drain budget")
	}
}
