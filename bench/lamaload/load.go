package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lama/internal/engine"
)

// verifyCount is how many requests, from the head of each stream, the
// oracle checks: a fixed set, so the check does not depend on throughput.
const verifyCount = 200

// loadConfig is one closed-loop run against a daemon.
type loadConfig struct {
	wl      *workload
	seed    int64
	callers int
	warmup  time.Duration
	window  time.Duration
	chain   *churnChain // churn-dc's events, nil otherwise
}

// exchange is one verified request and the reply it got.
type exchange struct {
	req  engine.Request
	body []byte
}

// tally is what one caller measured; loadResult merges them.
type tally struct {
	latMs     []float64 // window placements, send to last byte read
	eventMs   []float64 // window events
	respBytes int64     // window placement replies
	sent      int       // placements and events sent, warm-up included
	failures
}

func (t *tally) merge(o *tally) {
	t.latMs = append(t.latMs, o.latMs...)
	t.eventMs = append(t.eventMs, o.eventMs...)
	t.respBytes += o.respBytes
	t.sent += o.sent
	t.failures.merge(&o.failures)
}

// loadResult is what a closed-loop run measured.
type loadResult struct {
	tally
	verify     []exchange
	windowSecs float64
	// Scraped at window start and end.
	before, after    map[string]float64
	lamadCPU, genCPU float64 // seconds, over the window
	peakRSSMB        float64
}

// failures counts failed operations and keeps the first few messages.
type failures struct {
	failed int
	msgs   []string
}

func (f *failures) fail(format string, args ...any) {
	f.failed++
	if len(f.msgs) < 5 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

func (f *failures) merge(o *failures) {
	f.failed += o.failed
	for _, m := range o.msgs {
		if len(f.msgs) < 5 {
			f.msgs = append(f.msgs, m)
		}
	}
}

// loadState is shared by the callers of one run.
type loadState struct {
	cfg        loadConfig
	d          *daemon
	start      time.Time
	warmEnd    time.Time
	end        time.Time
	next       atomic.Int64 // next stream index
	evMu       sync.Mutex   // held while an event is in flight, so events apply in order
	nextEvent  int          // guarded by evMu
	verifyMu   sync.Mutex
	verifyBody [][]byte // guarded by verifyMu; index = stream index
}

// runLoad drives the daemon with cfg.callers closed-loop callers, each on
// its own keep-alive connection, through a warm-up and a measured window.
func runLoad(d *daemon, cfg loadConfig) (*loadResult, error) {
	st := &loadState{cfg: cfg, d: d, verifyBody: make([][]byte, verifyCount)}
	st.start = time.Now()
	st.warmEnd = st.start.Add(cfg.warmup)
	st.end = st.warmEnd.Add(cfg.window)
	tallies := make([]*tally, cfg.callers)
	var wg sync.WaitGroup
	for c := range tallies {
		tallies[c] = &tally{}
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			st.caller(t)
		}(tallies[c])
	}

	out := &loadResult{}
	pid := d.cmd.Process.Pid
	var errs []error
	mark := func() (map[string]float64, float64, float64) {
		c, err := d.counters()
		if err != nil {
			errs = append(errs, err)
		}
		cpu, err := cpuSeconds(pid)
		if err != nil {
			errs = append(errs, err)
		}
		return c, cpu, selfCPUSeconds()
	}
	time.Sleep(time.Until(st.warmEnd))
	var lamad0, gen0 float64
	out.before, lamad0, gen0 = mark()
	time.Sleep(time.Until(st.end))
	var lamad1, gen1 float64
	out.after, lamad1, gen1 = mark()
	rss, err := peakRSSMB(pid)
	if err != nil {
		errs = append(errs, err)
	}
	wg.Wait()
	if len(errs) > 0 {
		return nil, fmt.Errorf("reading lamad's counters: %v", errs[0])
	}
	out.lamadCPU, out.genCPU, out.peakRSSMB = lamad1-lamad0, gen1-gen0, rss
	out.windowSecs = cfg.window.Seconds()

	for _, t := range tallies {
		out.merge(t)
	}
	for i, b := range st.verifyBody {
		if b != nil {
			out.verify = append(out.verify, exchange{req: cfg.wl.request(cfg.seed, i), body: b})
		}
	}
	return out, nil
}

// caller is one closed-loop client: it sends its next request only once
// the previous reply is fully read.
func (st *loadState) caller(r *tally) {
	client := &http.Client{Transport: &http.Transport{
		Proxy: nil, DisableCompression: true, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
	}}
	defer client.CloseIdleConnections()
	placeURL := st.d.url + "/v1/place"
	var buf bytes.Buffer
	for time.Now().Before(st.end) {
		if st.cfg.chain != nil && st.sendDueEvent(client, r) {
			continue
		}
		i := int(st.next.Add(1) - 1)
		req := st.cfg.wl.request(st.cfg.seed, i)
		body, err := json.Marshal(req)
		if err != nil {
			r.fail("request %d: %v", i, err)
			continue
		}
		t0 := time.Now()
		status, err := roundTrip(client, placeURL, body, &buf)
		t1 := time.Now()
		r.sent++
		if err != nil {
			r.fail("request %d: %v", i, err)
			continue
		}
		if status != http.StatusOK {
			r.fail("request %d: status %d: %.200s", i, status, buf.Bytes())
			continue
		}
		if err := checkReply(buf.Bytes(), &req); err != nil {
			r.fail("request %d: %v", i, err)
			continue
		}
		if i < verifyCount {
			st.verifyMu.Lock()
			st.verifyBody[i] = bytes.Clone(buf.Bytes())
			st.verifyMu.Unlock()
		}
		if !t0.Before(st.warmEnd) && !t1.After(st.end) {
			r.latMs = append(r.latMs, ms(t1.Sub(t0)))
			r.respBytes += int64(buf.Len())
		}
	}
}

// sendDueEvent sends the next churn event if it is due and no other
// caller is sending one; it reports whether it sent anything.
func (st *loadState) sendDueEvent(client *http.Client, r *tally) bool {
	if !st.evMu.TryLock() {
		return false
	}
	defer st.evMu.Unlock()
	k := st.nextEvent
	if st.next.Load() < int64(k+1)*int64(eventEvery) {
		return false
	}
	st.nextEvent++
	step, err := st.cfg.chain.step(k)
	if err != nil {
		r.fail("event %d: %v", k, err)
		return true
	}
	var buf bytes.Buffer
	t0 := time.Now()
	status, err := roundTrip(client, st.d.url+"/v1/clusters/dc/events", step.body, &buf)
	t1 := time.Now()
	r.sent++
	if err != nil {
		r.fail("event %d: %v", k, err)
		return true
	}
	var ack engine.EventResponseJSON
	if status != http.StatusOK {
		r.fail("event %d: status %d: %.200s", k, status, buf.Bytes())
		return true
	}
	if err := json.Unmarshal(buf.Bytes(), &ack); err != nil || ack.Epoch != step.snap.Epoch() {
		r.fail("event %d: reply %q, want epoch %d", k, buf.Bytes(), step.snap.Epoch())
		return true
	}
	if !t0.Before(st.warmEnd) && !t1.After(st.end) {
		r.eventMs = append(r.eventMs, ms(t1.Sub(t0)))
	}
	return true
}

// roundTrip POSTs body and reads the whole reply into buf.
func roundTrip(client *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// checkReply is the cheap check every reply gets: the header names the
// request's cluster and np, and the reply carries one placement per rank.
// The full semantic check is the oracle's.
func checkReply(b []byte, req *engine.Request) error {
	prefix := `{"cluster":"` + req.Cluster + `","epoch":`
	if !bytes.HasPrefix(b, []byte(prefix)) {
		return fmt.Errorf("reply does not start with %s", prefix)
	}
	if np := `"np":` + strconv.Itoa(req.NP) + `,`; !bytes.Contains(b, []byte(np)) {
		return fmt.Errorf("reply lacks %s", np)
	}
	if n := bytes.Count(b, []byte(`{"rank":`)); n != req.NP {
		return fmt.Errorf("reply has %d placements, want %d", n, req.NP)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
