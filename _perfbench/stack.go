package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"scouts/internal/faults"
	"scouts/internal/gateway"
	"scouts/internal/monitoring"
	"scouts/internal/serving"
)

// listener is one HTTP server on a loopback port, configured the way
// scoutd and scoutgw configure theirs.
type listener struct {
	srv  *http.Server
	url  string
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      30 * time.Second,
			IdleTimeout:       2 * time.Minute,
		},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

func (l *listener) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// replicaNode is one scoutd-equivalent: serving.NewServer over the
// breaker-wrapped telemetry with scoutd's default knobs, restored from
// the published pack.
type replicaNode struct {
	name string
	srv  *serving.Server
	http *listener
	// loadMS times each Server.Reload of the published pack.
	loadMS []float64
}

// stack is the serving side of a workload: replicas and, for gw-single,
// the gateway in front of them.
type stack struct {
	replicas []*replicaNode
	gw       *gateway.Gateway
	gwHTTP   *listener
	stopProb context.CancelFunc
	probDone chan struct{}
	// target is the URL the load generator sends to.
	target string
}

// stackTrace is the optional instrumentation of a traced run.
type stackTrace struct {
	tr           *tracing
	spans        *spans
	inner, outer *sourceStats
}

// newReplicaServer is serving.NewServer with scoutd's default knobs.
func newReplicaServer(w *world, src monitoring.DataSource, store *serving.Store, name string) *serving.Server {
	srv := serving.NewServer(w.gen.Topology(), src, store, nil)
	srv.MaxInFlight = 64
	srv.RequestTimeout = 10 * time.Second
	srv.RetryAfterBase = time.Second
	srv.Degradation = scoutdDegradation
	srv.InstanceID = name
	return srv
}

// timedReload times one Server.Reload of the store's newest pack,
// starting from a collected heap so the garbage of earlier work does not
// land in a sub-millisecond measurement.
func timedReload(srv *serving.Server) (float64, error) {
	runtime.GC()
	start := time.Now()
	if err := srv.Reload(); err != nil {
		return 0, err
	}
	return msSince(start), nil
}

func startReplica(w *world, store *serving.Store, name string, st *stackTrace) (*replicaNode, error) {
	src := w.servingSource()
	if st != nil {
		src = w.tracedServingSource(st.tr, st.inner, st.outer, nil)
	}
	srv := newReplicaServer(w, src, store, name)
	node := &replicaNode{name: name, srv: srv}
	for r := 0; r < reloadReps; r++ {
		ms, err := timedReload(srv)
		if err != nil {
			return nil, err
		}
		node.loadMS = append(node.loadMS, ms)
	}
	var h http.Handler = srv.Handler()
	if st != nil {
		h = st.spans.replica(name, h)
	}
	l, err := listen(h)
	if err != nil {
		return nil, err
	}
	node.http = l
	return node, nil
}

// startStack brings up n replicas over the published store and, when
// withGateway is set, a gateway with scoutgw's defaults in front.
func startStack(w *world, store *serving.Store, team string, n int, withGateway bool, st *stackTrace) (*stack, error) {
	s := &stack{}
	for i := 0; i < n; i++ {
		node, err := startReplica(w, store, fmt.Sprintf("r%d", i), st)
		if err != nil {
			_ = s.close()
			return nil, err
		}
		s.replicas = append(s.replicas, node)
	}
	s.target = s.replicas[0].http.url
	if !withGateway {
		return s, nil
	}
	cfg := gateway.Config{
		MaxAttempts:   3,
		PerTryTimeout: 5 * time.Second,
		ReplicaBudget: 32,
		ProbeInterval: time.Second,
		Breaker:       faults.ReqBreakerParams{Trip: 5, Cooldown: 2 * time.Second},
		TopK:          3,
		Seed:          1,
	}
	for _, r := range s.replicas {
		cfg.Replicas = append(cfg.Replicas, gateway.ReplicaConfig{Name: r.name, Team: team, URL: r.http.url})
	}
	if st != nil {
		// The gateway's own default client, wrapped to stamp attempts.
		cfg.Client = &http.Client{Transport: &spanTransport{sp: st.spans, base: &http.Transport{MaxIdleConnsPerHost: 16}}}
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		_ = s.close()
		return nil, err
	}
	s.gw = gw
	ctx, cancel := context.WithCancel(context.Background())
	s.stopProb = cancel
	s.probDone = make(chan struct{})
	go func() {
		defer close(s.probDone)
		gw.RunProber(ctx)
	}()
	var h http.Handler = gw.Handler()
	if st != nil {
		h = st.spans.gateway(h)
	}
	if s.gwHTTP, err = listen(h); err != nil {
		_ = s.close()
		return nil, err
	}
	s.target = s.gwHTTP.url
	return s, nil
}

// close stops the gateway, its prober and every replica, waiting for
// each to finish.
func (s *stack) close() error {
	var errs []error
	if s.gwHTTP != nil {
		errs = append(errs, s.gwHTTP.close())
	}
	if s.stopProb != nil {
		s.stopProb()
		<-s.probDone
	}
	var wg sync.WaitGroup
	rerrs := make([]error, len(s.replicas))
	for i, r := range s.replicas {
		if r.http == nil {
			continue
		}
		wg.Add(1)
		go func(i int, r *replicaNode) {
			defer wg.Done()
			rerrs[i] = r.http.close()
		}(i, r)
	}
	wg.Wait()
	return errors.Join(append(errs, rerrs...)...)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
