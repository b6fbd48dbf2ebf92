package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime/trace"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	reg := NewRegistry()
	reg.Counter("lama_ranks_placed_total").Add(7)
	ring := NewRingSink(32)
	s := NewServer(reg, ring)
	s.Tool = "obstest"
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	s, ts := newTestServer(t)
	s.Ring.Emit(Event{Source: SrcMap, Name: "done"})

	if code, body := get(t, ts.URL+"/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: %d %q", code, body)
	}
	if code, body := get(t, ts.URL+"/healthz"); code != 200 ||
		!strings.Contains(body, "ok") || !strings.Contains(body, "tool obstest") ||
		!strings.Contains(body, "events 1 (dropped 0)") {
		t.Fatalf("healthz: %d %q", code, body)
	}
	if code, body := get(t, ts.URL+"/metrics"); code != 200 ||
		!strings.Contains(body, "lama_ranks_placed_total 7") {
		t.Fatalf("metrics: %d %q", code, body)
	}
	code, body := get(t, ts.URL+"/metrics.json")
	if code != 200 {
		t.Fatalf("metrics.json: %d", code)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("metrics.json not JSON: %v\n%s", err, body)
	}
	if snap.Counters["lama_ranks_placed_total"] != 7 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if code, _ := get(t, ts.URL+"/nope"); code != 404 {
		t.Fatalf("unknown path: %d", code)
	}
	// pprof index answers (profile endpoints are exercised in CI smoke).
	if code, body := get(t, ts.URL+"/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: %d", code)
	}
}

func TestServerNilFacilities(t *testing.T) {
	s := NewServer(nil, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, body := get(t, ts.URL+"/metrics"); code != 200 || body != "" {
		t.Fatalf("nil-registry metrics: %d %q", code, body)
	}
	if code, body := get(t, ts.URL+"/metrics.json"); code != 200 || !strings.Contains(body, "{}") {
		t.Fatalf("nil-registry metrics.json: %d %q", code, body)
	}
	if code, _ := get(t, ts.URL+"/events"); code != 404 {
		t.Fatalf("nil-ring events: want 404")
	}
}

func TestServerEventsDump(t *testing.T) {
	s, ts := newTestServer(t)
	for i := 0; i < 5; i++ {
		s.Ring.Emit(Event{Source: SrcEngine, Name: "tick", Fields: []Field{F("i", i)}})
	}
	code, body := get(t, ts.URL+"/events?follow=0&replay=3")
	if code != 200 {
		t.Fatalf("events dump: %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d: %q", len(lines), body)
	}
	if !strings.Contains(lines[0], `"i":2`) || !strings.Contains(lines[2], `"i":4`) {
		t.Fatalf("wrong tail: %q", body)
	}
	if code, _ := get(t, ts.URL+"/events?replay=bogus"); code != 400 {
		t.Fatal("bad replay should 400")
	}
	if code, _ := get(t, ts.URL+"/events?replay=-1"); code != 400 {
		t.Fatal("negative replay should 400")
	}
}

func TestServerEventsFollow(t *testing.T) {
	s, ts := newTestServer(t)
	s.Ring.Emit(Event{Source: SrcEngine, Name: "tick", Fields: []Field{F("i", 0)}})

	resp, err := http.Get(ts.URL + "/events?replay=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)

	if !sc.Scan() || !strings.Contains(sc.Text(), `"i":0`) {
		t.Fatalf("replay line = %q", sc.Text())
	}
	s.Ring.Emit(Event{Source: SrcEngine, Name: "tick", Fields: []Field{F("i", 1)}})
	if !sc.Scan() || !strings.Contains(sc.Text(), `"i":1`) {
		t.Fatalf("live line = %q", sc.Text())
	}
	// Closing the ring ends the stream server-side.
	s.Ring.Close()
	deadline := time.After(5 * time.Second)
	done := make(chan bool, 1)
	go func() { done <- sc.Scan() }()
	select {
	case more := <-done:
		if more {
			t.Fatalf("unexpected line after ring close: %q", sc.Text())
		}
	case <-deadline:
		t.Fatal("stream did not end after ring close")
	}
}

func TestServerEventsSlowReader(t *testing.T) {
	s, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/events?replay=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Never read the body; flood far past the subscription buffer (256)
	// plus any HTTP buffering. Emit must never block.
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for i := 0; i < 5000; i++ {
			s.Ring.Emit(Event{Source: SrcEngine, Name: "tick", Fields: []Field{F("i", i)}})
		}
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("Emit blocked on a slow /events reader")
	}
	if s.Ring.Total() != 5000 {
		t.Fatalf("total = %d", s.Ring.Total())
	}
	// The stalled subscriber must have lost events rather than stalling us.
	deadline := time.Now().Add(5 * time.Second)
	for s.Ring.Dropped() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no drops recorded for a stalled subscriber")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerStartClose(t *testing.T) {
	s := NewServer(NewRegistry(), NewRingSink(8))
	if s.Addr() != "" {
		t.Fatal("addr before Start")
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if s.Addr() != addr {
		t.Fatalf("Addr() = %q, Start returned %q", s.Addr(), addr)
	}
	if code, _ := get(t, "http://"+addr+"/healthz"); code != 200 {
		t.Fatal("healthz over real listener")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still serving after Close")
	}
	var unstarted Server
	if err := unstarted.Close(); err != nil {
		t.Fatal("Close without Start should be nil")
	}
}

// TestServerDropsStalledHeader: every server carries the connection
// bounds, and a client that sends part of its header and stalls is
// disconnected once ReadHeaderTimeout passes, without a reply.
func TestServerDropsStalledHeader(t *testing.T) {
	s := NewServer(nil, nil)
	got := [4]time.Duration{s.srv.ReadHeaderTimeout, s.srv.ReadTimeout, s.srv.WriteTimeout, s.srv.IdleTimeout}
	if want := [4]time.Duration{readHeaderTimeout, readTimeout, writeTimeout, idleTimeout}; got != want {
		t.Fatalf("server timeouts = %v, want %v", got, want)
	}
	s.srv.ReadHeaderTimeout = 100 * time.Millisecond
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 64)); err != io.EOF {
		t.Fatalf("stalled client read %d bytes, err %v; want EOF", n, err)
	}
}

// TestServerFollowOutlivesWriteTimeout: an /events follow keeps
// delivering long after the server's read and write timeouts have
// passed, since each write moves its own deadline.
func TestServerFollowOutlivesWriteTimeout(t *testing.T) {
	s := NewServer(nil, NewRingSink(8))
	s.srv.ReadTimeout, s.srv.WriteTimeout = 100*time.Millisecond, 200*time.Millisecond
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + addr + "/events?replay=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 3; i++ {
		time.Sleep(300 * time.Millisecond)
		s.Ring.Emit(Event{Source: SrcEngine, Name: "tick", Fields: []Field{F("i", i)}})
		if !sc.Scan() || !strings.Contains(sc.Text(), fmt.Sprintf(`"i":%d`, i)) {
			t.Fatalf("event %d after %d ms: %q, err %v", i, 300*(i+1), sc.Text(), sc.Err())
		}
	}
}

// TestServerCloseEndsTrace: Close ends a running ?seconds=N trace, which
// replies with what it has, instead of waiting out its span or the
// drain.
func TestServerCloseEndsTrace(t *testing.T) {
	s := NewServer(nil, nil)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	type reply struct {
		code int
		n    int
		err  error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/debug/pprof/trace?seconds=30")
		if err != nil {
			got <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		got <- reply{resp.StatusCode, len(body), err}
	}()
	for !trace.IsEnabled() {
		select {
		case r := <-got:
			t.Fatalf("trace ended before Close: status %d, err %v", r.code, r.err)
		case <-time.After(time.Millisecond):
		}
	}
	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatalf("Close with a trace running: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v with a trace running", took)
	}
	if r := <-got; r.err != nil || r.code != 200 || r.n == 0 {
		t.Fatalf("trace reply: status %d, %d bytes, err %v", r.code, r.n, r.err)
	}
}
