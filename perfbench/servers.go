package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"evvo/internal/cloud"
	"evvo/internal/queue"
	"evvo/internal/road"
)

// serverConfig is the cloud.ServerConfig cmd/cloudd builds with its
// default flags (-rate 153 -deadline 30s -segment-tables -coarse-ladder 3,
// admission and DP grid at their library defaults).
func serverConfig() cloud.ServerConfig {
	vin := queue.VehPerHour(153)
	return cloud.ServerConfig{
		ArrivalRate:        func(road.Control, float64) (float64, error) { return vin, nil },
		DefaultDeadlineSec: 30,
		SegmentTables:      true,
		CoarseLadderFactor: 3,
	}
}

// node is one in-process cloudd member on a loopback listener.
type node struct {
	id     string
	url    string
	srv    *cloud.Server
	http   *http.Server
	served chan error
	h      atomic.Pointer[http.Handler]
}

// ServeHTTP answers 503 until the member's handler is installed: peers
// need every member's URL before any cloud.Server exists.
func (n *node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := n.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "starting", http.StatusServiceUnavailable)
}

// cluster is the set of members one workload runs against.
type cluster struct {
	nodes []*node
}

// startCluster boots n members (a standalone server when n is 1, else a
// full-mesh cloudd cluster with default cluster settings), each handler
// passed through wrap, and waits until every member answers /v1/ready.
func startCluster(ctx context.Context, n int, wrap func(string, http.Handler) http.Handler) (*cluster, error) {
	c := &cluster{}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		nd := &node{id: fmt.Sprintf("node-%d", i+1), url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
		nd.http = &http.Server{Handler: nd, ReadHeaderTimeout: 5 * time.Second}
		go func() { nd.served <- nd.http.Serve(ln) }()
		c.nodes = append(c.nodes, nd)
	}
	for _, nd := range c.nodes {
		cfg := serverConfig()
		if n > 1 {
			peers := map[string]string{}
			for _, p := range c.nodes {
				if p != nd {
					peers[p.id] = p.url
				}
			}
			cfg.Cluster = &cloud.ClusterConfig{NodeID: nd.id, Peers: peers}
		}
		srv, err := cloud.NewServer(cfg)
		if err != nil {
			c.close()
			return nil, err
		}
		nd.srv = srv
		h := wrap(nd.id, srv.Handler())
		nd.h.Store(&h)
	}
	for _, nd := range c.nodes {
		if err := waitReady(ctx, nd.url); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func waitReady(ctx context.Context, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/ready", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_ = resp.Body.Close() // readiness poll: only the status matters
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became ready", base)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// close shuts every member down and waits for its serve loop to return.
func (c *cluster) close() {
	var wg sync.WaitGroup
	for _, nd := range c.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := nd.http.Shutdown(ctx); err != nil {
				_ = nd.http.Close() // drain budget spent; cut the stragglers
			}
			if err := <-nd.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "perfbench: %s serve loop: %v\n", nd.id, err)
			}
			if nd.srv != nil {
				nd.srv.Close()
			}
		}()
	}
	wg.Wait()
	http.DefaultClient.CloseIdleConnections()
}

// urls lists the members' base URLs in node order.
func (c *cluster) urls() []string {
	out := make([]string, len(c.nodes))
	for i, nd := range c.nodes {
		out[i] = nd.url
	}
	return out
}

// stats fetches /v1/stats from every member.
func (c *cluster) stats(ctx context.Context, cl []*cloud.Client) ([]cloud.Stats, error) {
	out := make([]cloud.Stats, len(cl))
	for i, x := range cl {
		s, err := x.Stats(ctx)
		if err != nil {
			return nil, fmt.Errorf("stats of %s: %w", c.nodes[i].id, err)
		}
		out[i] = s
	}
	return out, nil
}
