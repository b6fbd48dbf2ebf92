package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// drainTimeout bounds how long a shutdown waits for in-flight requests to
// finish their replies before the remaining connections are dropped.
const drainTimeout = 10 * time.Second

// httpServer binds eagerly (so -listen :0 can report its picked port
// before serving) and runs until the listener fails or a shutdown signal
// arrives.
type httpServer struct {
	addr string
	ln   net.Listener
	srv  *http.Server
}

func newHTTPServer(addr string, h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-listen %s: %v", addr, err)
	}
	return &httpServer{
		addr: ln.Addr().String(),
		ln:   ln,
		srv:  &http.Server{Handler: h},
	}, nil
}

func (s *httpServer) serve() error {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	return s.serveUntil(sigc)
}

// serveUntil serves until the listener fails or stop fires, then drains:
// the listener closes at once, and requests already in flight get up to
// drainTimeout to finish their replies.
func (s *httpServer) serveUntil(stop <-chan os.Signal) error {
	errc := make(chan error, 1)
	go func() { errc <- s.srv.Serve(s.ln) }()
	select {
	case err := <-errc:
		return err
	case <-stop:
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := s.srv.Shutdown(ctx); err != nil {
			s.srv.Close()
			return fmt.Errorf("drain: %v", err)
		}
		<-errc // Serve has returned http.ErrServerClosed
		return nil
	}
}
