package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	nhpprof "net/http/pprof"
	"strconv"
	"time"
)

// Server is the one HTTP server of the repository: every CLI's -listen
// serves an Observer's telemetry through it, and lamad mounts its /v1
// placement API on it (Handler) before Start:
//
//	/metrics                 Prometheus text exposition of the Registry
//	/metrics.json            the Registry snapshot as JSON
//	/healthz                 liveness: "ok", uptime, event totals
//	/events                  streaming JSONL tail of the event ring
//	                         (?replay=N newest events first, ?follow=0
//	                         to dump the tail and close)
//	/debug/pprof/*           the standard Go profiling endpoints; with
//	                         profiling labels on (see PhaseTimer), CPU
//	                         samples carry lama_phase / lama_policy
//
// The zero endpoints degrade gracefully: a nil Registry serves empty
// expositions and a nil RingSink serves an empty event stream, so the
// server can front any subset of an Observer's facilities.
type Server struct {
	// Registry is the metrics registry served by /metrics and
	// /metrics.json (nil serves empty documents).
	Registry *Registry
	// Ring is the event buffer served by /events (nil serves none).
	Ring *RingSink
	// Tool names the serving binary in /healthz ("" omits it).
	Tool string

	started  time.Time
	mux      *http.ServeMux
	srv      *http.Server
	stopping context.Context // done once Close begins
	ln       net.Listener
	served   chan struct{} // closed when Serve returns
	serveErr error         // Serve's result, read after served closes
}

// The connection bounds of every Server (a max-np /v1/place reply is
// ~55 MB). /events follows move their write deadline per write, and
// net/http/pprof moves it past a ?seconds=N sample. Close lets requests
// in flight finish for up to drainTimeout.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 60 * time.Second
	idleTimeout       = 120 * time.Second
	drainTimeout      = 10 * time.Second
)

// NewServer builds a server over the given registry and event ring.
func NewServer(reg *Registry, ring *RingSink) *Server {
	s := &Server{Registry: reg, Ring: ring, started: time.Now(), mux: http.NewServeMux()}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/metrics.json", s.handleMetricsJSON)
	s.mux.HandleFunc("/events", s.untilStop(s.handleEvents))
	s.mux.HandleFunc("/debug/pprof/", nhpprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", nhpprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", s.untilStop(nhpprof.Profile))
	s.mux.HandleFunc("/debug/pprof/symbol", nhpprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", s.untilStop(nhpprof.Trace))
	s.srv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	var stop context.CancelFunc
	s.stopping, stop = context.WithCancel(context.Background())
	s.srv.RegisterOnShutdown(stop)
	return s
}

// NewLiveServer builds the live telemetry plane that lamad and every
// CLI's -listen serve: a registry carrying lama_build_info, an event
// ring of DefaultRingCapacity whose drops count in
// lama_obs_events_dropped_total, and the server over both.
func NewLiveServer(tool string) *Server {
	reg := NewRegistry()
	RegisterBuildInfo(reg)
	ring := NewRingSink(DefaultRingCapacity)
	ring.DropCounter = reg.Counter("lama_obs_events_dropped_total")
	s := NewServer(reg, ring)
	s.Tool = tool
	return s
}

// Handler returns the server's routing table. Routes mounted on it
// before Start (lamad's /v1 API) are served next to the telemetry ones;
// it also fronts an httptest server.
func (s *Server) Handler() *http.ServeMux { return s.mux }

// Start binds addr (host:port; port 0 picks a free one) and serves in a
// background goroutine, returning the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: -listen %s: %v", addr, err)
	}
	s.ln = ln
	s.served = make(chan struct{})
	//lama:join-ok Serve returns when Close shuts the server down; Close waits on served, which is the join
	go func() {
		s.serveErr = s.srv.Serve(ln)
		close(s.served)
	}()
	return ln.Addr().String(), nil
}

// Addr returns the bound address after Start ("" before).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Done is closed once serving has ended: after Close, or as soon as the
// listener fails (nil before Start, so it never fires).
func (s *Server) Done() <-chan struct{} { return s.served }

// Close is the one stop path: it stops accepting, ends the streams
// (untilStop), lets requests in flight finish for up to drainTimeout,
// then closes what is left. It returns Serve's error if serving had
// failed, an error if the drain ran out of time, and nil otherwise.
// Safe to call without Start, and more than once.
func (s *Server) Close() error {
	if s.ln == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		s.srv.Close() // best effort: the drain already failed
		err = fmt.Errorf("drain: %v", err)
	}
	<-s.served
	if !errors.Is(s.serveErr, http.ErrServerClosed) {
		return s.serveErr
	}
	return err
}

// untilStop ends a streaming handler's request context when Close
// begins, so an /events follow, a profile or a trace ends its reply
// instead of holding up the drain.
func (s *Server) untilStop(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		defer context.AfterFunc(s.stopping, cancel)()
		h(w, r.WithContext(ctx))
	}
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "lama telemetry plane\n\n")
	for _, line := range []string{
		"/metrics          Prometheus text exposition",
		"/metrics.json     metrics snapshot as JSON",
		"/healthz          liveness and event totals",
		"/events           streaming JSONL event tail (?replay=N, ?follow=0)",
		"/debug/pprof/     Go profiling endpoints (lama_phase / lama_policy labels)",
	} {
		fmt.Fprintln(w, line)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
	if s.Tool != "" {
		fmt.Fprintf(w, "tool %s\n", s.Tool)
	}
	fmt.Fprintf(w, "uptime %s\n", time.Since(s.started).Round(time.Millisecond))
	if s.Ring != nil {
		fmt.Fprintf(w, "events %d (dropped %d)\n", s.Ring.Total(), s.Ring.Dropped())
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.Registry.WritePrometheus(w) // best effort: client may be gone
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	snap := s.Registry.Snapshot()
	if snap == nil {
		snap = &MetricsSnapshot{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap) // best effort: client may be gone
}

// handleEvents streams the event ring as JSONL: the newest ?replay=N
// buffered events (default 64, 0 for none), then — unless ?follow=0 —
// every later event until the client disconnects, the run ends or Close
// begins (untilStop). A client that stalls longer than its subscription
// buffer loses events (counted by the RingSink) rather than stalling the
// emitters. A follow outlives the server's WriteTimeout: each write
// moves the deadline to WriteTimeout past its own start.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.Ring == nil {
		http.Error(w, "no event ring attached", http.StatusNotFound)
		return
	}
	replay := 64
	if v := r.URL.Query().Get("replay"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad replay count", http.StatusBadRequest)
			return
		}
		replay = n
	}
	follow := true
	if v := r.URL.Query().Get("follow"); v == "0" || v == "false" {
		follow = false
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	writeEvent := func(e Event) bool {
		data, err := json.Marshal(e)
		if err != nil {
			return false
		}
		rc.SetWriteDeadline(time.Now().Add(s.srv.WriteTimeout)) // best effort: a writer without deadlines has none to move
		if _, err := w.Write(append(data, '\n')); err != nil {
			return false
		}
		rc.Flush() // best effort: a failed flush fails the next write
		return true
	}

	if !follow {
		for _, e := range s.Ring.Tail(replay) {
			if !writeEvent(e) {
				return
			}
		}
		return
	}
	tail, sub := s.Ring.Subscribe(replay, 256)
	if sub == nil { // sink already closed: serve the nothing we have
		return
	}
	defer s.Ring.Unsubscribe(sub)
	// Commit the response before the first event, once subscribed: a
	// follower with an empty ring would otherwise never see headers and
	// block on connect, and one that sees them misses no later event.
	w.WriteHeader(http.StatusOK)
	rc.Flush() // best effort: a failed flush fails the next write
	for _, e := range tail {
		if !writeEvent(e) {
			return
		}
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case e, ok := <-sub.C:
			if !ok {
				return
			}
			if !writeEvent(e) {
				return
			}
		}
	}
}
