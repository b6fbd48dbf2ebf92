package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lama/internal/cluster"
	"lama/internal/core"
	"lama/internal/engine"
	"lama/internal/obs"
	"lama/internal/place"
)

// The traced run replays a workload's seeded stream in-process, against an
// engine configured like lamad's, and times the calls into each layer's
// public functions from this file. Each request gets a root "request" span
// with three children: wire.decode (JSON into engine.Request, as lamad's
// handler does), engine.place (tagged hit or miss) and wire.encode (the
// reply through json.Encoder). Churn events get an "event" span around
// engine.apply_event.

// missReplayLimit caps how many misses are replayed on the benchmark's own
// mapper after the window: enough for stable medians, few enough that
// treematch-heavy streams finish in seconds.
const missReplayLimit = 200

// span is one timed interval; times are µs from the replay's start.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Req    int     `json:"req"` // stream index; event k is -(k+1)
	Name   string  `json:"name"`
	Tag    string  `json:"tag,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func (s *span) us() float64 { return s.End - s.Start }

// served records what the engine answered for one stream index.
type served struct {
	idx    int
	epoch  uint64
	cached bool
}

// replayResult is what a replay measured; each caller fills its own and
// replay merges them.
type replayResult struct {
	requests int
	rate     float64 // requests per second
	buildMs  float64 // building and registering both clusters
	spans    []span
	served   []served
	snaps    snapshots // as the engine published them
	failures
}

type replayer struct {
	wl      *workload
	seed    int64
	chain   *churnChain
	record  bool
	eng     *engine.Engine
	start   time.Time
	end     time.Time
	next    atomic.Int64
	spanID  atomic.Int64
	evMu    sync.Mutex
	nextEv  int                 // guarded by evMu
	dcSnaps []*cluster.Snapshot // guarded by evMu
}

// replay runs callers closed-loop callers over the stream for dur, on a
// fresh engine and freshly built clusters. With record off it only counts
// requests, for the tracing-overhead comparison.
func replay(wl *workload, seed int64, chain *churnChain, callers int, dur time.Duration, record bool) (*replayResult, error) {
	out := &replayResult{}
	t0 := time.Now()
	dc, part, err := site()
	if err != nil {
		return nil, err
	}
	eng := engine.New(engine.Config{})
	for name, s := range map[string]*cluster.Snapshot{"dc": dc, "part": part} {
		if err := eng.Register(name, &engine.Snapshot{Clu: s}); err != nil {
			return nil, err
		}
	}
	out.buildMs = sinceUs(t0) / 1000

	rp := &replayer{wl: wl, seed: seed, chain: chain, record: record, eng: eng, dcSnaps: []*cluster.Snapshot{dc}}
	rp.start = time.Now()
	rp.end = rp.start.Add(dur)
	cs := make([]*replayResult, callers)
	var wg sync.WaitGroup
	for i := range cs {
		cs[i] = &replayResult{}
		wg.Add(1)
		go func(c *replayResult) {
			defer wg.Done()
			rp.caller(c)
		}(cs[i])
	}
	wg.Wait()
	elapsed := time.Since(rp.start).Seconds()
	for _, c := range cs {
		out.requests += c.requests
		out.spans = append(out.spans, c.spans...)
		out.served = append(out.served, c.served...)
		out.failures.merge(&c.failures)
	}
	out.rate = float64(out.requests) / elapsed
	out.snaps = snapshots{part: part, dc: rp.dcSnaps}
	return out, nil
}

func (rp *replayer) us(t time.Time) float64 {
	return float64(t.Sub(rp.start)) / float64(time.Microsecond)
}

func (rp *replayer) caller(c *replayResult) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	ctx := context.Background()
	var ts [4]time.Time
	stamp := func(k int) {
		if rp.record {
			ts[k] = time.Now()
		}
	}
	for time.Now().Before(rp.end) {
		if rp.chain != nil && rp.applyDueEvent(c) {
			continue
		}
		i := int(rp.next.Add(1) - 1)
		body := rp.wl.body(rp.seed, i)

		stamp(0)
		var req engine.Request
		err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		stamp(1)
		if err != nil || req.NP <= 0 {
			c.fail("request %d: decode: %v", i, err)
			continue
		}
		resp, err := rp.eng.Place(ctx, &req)
		stamp(2)
		if err != nil {
			c.fail("request %d: %v", i, err)
			continue
		}
		buf.Reset()
		err = enc.Encode(wireReply(&req, resp))
		stamp(3)
		if err != nil {
			c.fail("request %d: encode: %v", i, err)
			continue
		}
		c.requests++
		if !rp.record {
			continue
		}
		tag := "miss"
		if resp.Cached {
			tag = "hit"
		}
		root := rp.spanID.Add(4) - 3
		c.spans = append(c.spans,
			span{ID: root, Req: i, Name: "request", Start: rp.us(ts[0]), End: rp.us(ts[3])},
			span{ID: root + 1, Parent: root, Req: i, Name: "wire.decode", Start: rp.us(ts[0]), End: rp.us(ts[1])},
			span{ID: root + 2, Parent: root, Req: i, Name: "engine.place", Tag: tag, Start: rp.us(ts[1]), End: rp.us(ts[2])},
			span{ID: root + 3, Parent: root, Req: i, Name: "wire.encode", Start: rp.us(ts[2]), End: rp.us(ts[3])},
		)
		c.served = append(c.served, served{idx: i, epoch: resp.Epoch, cached: resp.Cached})
	}
}

// wireReply builds the reply exactly as lamad's place handler does.
func wireReply(req *engine.Request, resp *engine.Response) engine.PlaceResponseJSON {
	out := engine.PlaceResponseJSON{
		Cluster:    req.Cluster,
		Epoch:      resp.Epoch,
		Cached:     resp.Cached,
		NP:         resp.Map.NumRanks(),
		Sweeps:     resp.Map.Sweeps,
		Placements: make([]engine.PlacementJSON, 0, resp.Map.NumRanks()),
	}
	for i := range resp.Map.Placements {
		p := &resp.Map.Placements[i]
		out.Placements = append(out.Placements, engine.PlacementJSON{
			Rank: p.Rank, Node: p.Node, NodeName: p.NodeName, PUs: p.PUs,
		})
	}
	return out
}

// applyDueEvent applies the next churn event through engine.ApplyEvent if
// it is due and no other caller is applying one.
func (rp *replayer) applyDueEvent(c *replayResult) bool {
	if !rp.evMu.TryLock() {
		return false
	}
	defer rp.evMu.Unlock()
	k := rp.nextEv
	if rp.next.Load() < int64(k+1)*int64(eventEvery) {
		return false
	}
	rp.nextEv++
	step, err := rp.chain.step(k)
	if err != nil {
		c.fail("event %d: %v", k, err)
		return true
	}
	t0 := time.Now()
	epoch, _, err := rp.eng.ApplyEvent("dc", &step.ev)
	t1 := time.Now()
	if err != nil || epoch != step.snap.Epoch() {
		c.fail("event %d: epoch %d, err %v; want epoch %d", k, epoch, err, step.snap.Epoch())
		return true
	}
	rp.dcSnaps = append(rp.dcSnaps, rp.eng.Snapshot("dc").Clu)
	if rp.record {
		root := rp.spanID.Add(2) - 1
		c.spans = append(c.spans,
			span{ID: root, Req: -(k + 1), Name: "event", Start: rp.us(t0), End: rp.us(t1)},
			span{ID: root + 1, Parent: root, Req: -(k + 1), Name: "engine.apply_event", Start: rp.us(t0), End: rp.us(t1)},
		)
	}
	return true
}

// missStats times the recorded misses replayed on the benchmark's own
// mapper (lama, with the existing obs.PhaseTimer attached) or through
// place.Place (other policies, with commpat generation timed on its own).
type missStats struct {
	mapUs       []float64          // every replayed miss, traffic generation included
	leafUs      map[string]float64 // total per leaf layer
	coreMapUs   []float64
	afterSwapUs []float64 // first lama map of a (cluster, layout) on a new epoch
	policyUs    map[string][]float64
	genUs       []float64
}

func policyLayer(policy string) string {
	switch policy {
	case "treematch", "torus":
		return "place." + policy
	}
	return "place.baseline"
}

func replayMisses(wl *workload, seed int64, r *replayResult) (*missStats, error) {
	misses := make([]served, 0, len(r.served))
	for _, s := range r.served {
		if !s.cached {
			misses = append(misses, s)
		}
	}
	sort.Slice(misses, func(a, b int) bool { return misses[a].idx < misses[b].idx })
	if len(misses) > missReplayLimit {
		misses = misses[:missReplayLimit]
	}
	ms := &missStats{leafUs: map[string]float64{}, policyUs: map[string][]float64{}}
	// One mapper per (cluster, layout), as each engine worker keeps them.
	type pooled struct {
		mp    *core.Mapper
		epoch uint64 // of the snapshot it last mapped
	}
	mappers := map[string]*pooled{}
	ctx := context.Background()
	for _, s := range misses {
		req := wl.request(seed, s.idx)
		snap, err := r.snaps.at(req.Cluster, s.epoch)
		if err != nil {
			return nil, err
		}
		if isLama(&req) {
			key := req.Cluster + "\x00" + req.Layout
			lm := mappers[key]
			if lm == nil {
				mp, err := lamaMapper(&req, nil)
				if err != nil {
					return nil, err
				}
				lm = &pooled{mp: mp}
				mappers[key] = lm
			}
			pt := obs.NewPhaseTimer()
			lm.mp.Cluster = snap.Cluster()
			lm.mp.Opts = options(&req)
			lm.mp.Opts.Obs = &obs.Observer{Phases: pt}
			t0 := time.Now()
			if _, err := lm.mp.MapContext(ctx, req.NP); err != nil {
				return nil, err
			}
			us := sinceUs(t0)
			ms.mapUs = append(ms.mapUs, us)
			ms.coreMapUs = append(ms.coreMapUs, us)
			if lm.epoch != 0 && lm.epoch != s.epoch {
				ms.afterSwapUs = append(ms.afterSwapUs, us)
			}
			lm.epoch = s.epoch
			tot := pt.Totals()
			self := tot[obs.SpanPlace] - tot[obs.SpanPrune] - tot[obs.SpanBuildShape] - tot[obs.SpanSweep]
			ms.leafUs["core.prune"] += tot[obs.SpanPrune]
			ms.leafUs["core.build_shape"] += tot[obs.SpanBuildShape]
			ms.leafUs["core.sweep"] += tot[obs.SpanSweep]
			ms.leafUs["core.place"] += max(self, 0)
			continue
		}
		preq, err := policyRequest(&req, snap.Cluster())
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if preq.Traffic, err = traffic(&req); err != nil {
			return nil, err
		}
		genUs := sinceUs(t0)
		if preq.Traffic != nil {
			ms.genUs = append(ms.genUs, genUs)
			ms.leafUs["commpat.gen"] += genUs
		}
		t1 := time.Now()
		if _, err := place.Place(ctx, req.Policy, preq); err != nil {
			return nil, err
		}
		us := sinceUs(t1)
		layer := policyLayer(req.Policy)
		ms.policyUs[layer] = append(ms.policyUs[layer], us)
		ms.leafUs[layer] += us
		ms.mapUs = append(ms.mapUs, genUs+us)
	}
	return ms, nil
}

// writeSpans writes the recorded spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
