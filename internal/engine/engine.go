// Package engine is the request-scoped placement engine behind the lamad
// daemon: a registry of named clusters published as immutable
// cluster.Snapshot values (swapped atomically on failure/grow events), a
// bounded pool of workers that reuse Mapper state across requests, a
// byte-bounded LRU placement cache keyed by the engine's publication
// number of the snapshot, one run per key serving every np up to its
// length, and admission control with deadline-aware shedding.
//
// The engine is what turns the library's "one mutable Cluster + one
// caller" model into "immutable snapshots + many concurrent callers":
// requests never observe a half-applied mutation (they hold a snapshot
// pointer for their whole run), and mutation events mint a new snapshot
// via copy-on-write. A pooled mapper re-pointed at the new snapshot
// refreshes its dense tree in place: it keeps every node whose topology
// the event did not touch and resolves a pruned shape only for the
// touched or appended nodes, so an event costs each mapper one O(n)
// identity walk rather than a rebuild.
//
// The cache key's cluster, publication, policy, layout, pes and
// oversubscribe fields are load-bearing: each selects a different run.
// A publication is minted by every Register and Swap and never reused,
// so it names one published snapshot where neither the snapshot's epoch
// (a rollback re-register re-mints epochs) nor its content does.
// np is not, for a place.PrefixClosed policy such as the LAMA, whose np
// is only the stop test of its outer loop (paper Fig. 1): its run of np
// ranks is the first np ranks of its run of any N >= np. Such a key
// stores the longest run computed so far and serves every np up to its
// length from that run's first ranks; see cacheKey.
//
// Determinism contract: given the same snapshot epoch and the same
// request, the engine returns the same placement — it is in lamavet's
// deterministic package set. Nothing in this package reads a clock or
// random source; latency accounting lives in the callers (place.Run
// metrics, the lamad HTTP layer, the bench/lamaload benchmark).
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/obs"
	"lama/internal/place"
)

// Snapshot is what the engine publishes for one registered cluster: the
// immutable cluster snapshot placements are computed against.
type Snapshot struct {
	Clu *cluster.Snapshot
}

// ErrOverloaded is returned when admission control refuses a request: the
// bounded queue is full, or the request's context expired while queued.
var ErrOverloaded = errors.New("engine: overloaded, request shed")

// MaxNP bounds the process count a single request may ask for. It keeps a
// hostile or corrupted request from driving the mapper into allocating a
// rank table far beyond anything the cluster could place (2^20 ranks is
// already an order of magnitude past the largest MPI jobs in production).
const MaxNP = 1 << 20

// maxTrafficPairs bounds the traffic a request's pattern may generate:
// np·(np−1) ordered pairs, the most any pattern has, at np = 4096. A
// pattern builds its matrix in 56 bytes a pair, ~940 MB there: the
// builder's 16-byte entry, and a 20-byte CSR slot (peer, out and in
// bytes) for each direction of the pair, which the matrix keeps until it
// is released. Traffic is generated only for a place.TrafficAware policy,
// and only for a request within this bound.
const maxTrafficPairs = 4096 * 4095

// ErrUnknownCluster is returned for requests naming an unregistered
// cluster.
var ErrUnknownCluster = errors.New("engine: unknown cluster")

// ErrStaleSnapshot is returned for a request pinned to a snapshot epoch
// the cluster has since left: a failure or added node was published in
// between, so the placement the caller planned against may no longer
// hold. Callers should re-fetch the current epoch and retry. The text
// keeps its original "core:" prefix, which clients may match on.
var ErrStaleSnapshot = errors.New("core: cluster snapshot is stale")

// Config tunes an Engine.
type Config struct {
	// Workers bounds concurrent placements; <= 0 means 4.
	Workers int
	// QueueDepth bounds requests waiting for a worker; once the queue is
	// full further requests are shed immediately. <= 0 means 4*Workers.
	QueueDepth int
	// CacheBytes bounds the bytes the placement LRU holds, maps and
	// their encoded placements together: 0 means defaultCacheBytes, and a
	// negative value disables the cache. Traffic matrices are not
	// cached: a traffic-aware request generates its own.
	CacheBytes int64
	// Obs receives engine events (register, swap, shed) and the cache and
	// admission counters. Nil disables instrumentation.
	Obs *obs.Observer
}

// defaultCacheBytes is the placement cache budget when Config.CacheBytes
// is 0: 256 MiB.
const defaultCacheBytes = 256 << 20

// Request is one placement query.
type Request struct {
	// Cluster names the registered cluster (required).
	Cluster string `json:"cluster"`
	// NP is the number of processes to place (required).
	NP int `json:"np"`
	// Policy is the registry policy; empty means "lama".
	Policy string `json:"policy,omitempty"`
	// Layout is the LAMA layout string; empty means "csbnh".
	Layout string `json:"layout,omitempty"`
	// Epoch, when non-zero, requires the cluster to still be at that
	// snapshot epoch; a mismatch fails with ErrStaleSnapshot. Zero
	// accepts whatever epoch is current.
	Epoch uint64 `json:"epoch,omitempty"`
	// Pattern names a commpat traffic pattern for traffic-aware policies
	// (e.g. "ring", "gtc"); Bytes is the per-exchange volume (0 = 1 MiB).
	Pattern string  `json:"pattern,omitempty"`
	Bytes   float64 `json:"bytes,omitempty"`
	// Oversubscribe permits placing more claims than PUs.
	Oversubscribe bool `json:"oversubscribe,omitempty"`
	// PEsPerProc claims several PUs per rank (0 = 1).
	PEsPerProc int `json:"pes_per_proc,omitempty"`
	// NoCache bypasses the placement cache, both lookup and fill. No
	// other cache holds placements or traffic, so a NoCache reply is
	// computed in full.
	NoCache bool `json:"no_cache,omitempty"`
}

// Response is a served placement. Map's slices are shared with the cache
// — callers must treat them as read-only. A Response Place returns is the
// caller's to keep: only the /v1/place handler gives a map's storage back
// (see recycle), and only once it has written the reply.
type Response struct {
	Map    core.Map
	Epoch  uint64
	Cached bool
	// entry is the stored run the /v1/place reply is written from, shared
	// with the cache; nil when the request bypassed the cache.
	entry *cacheEntry
	// run is the map the policy returned for an uncached request, which
	// Map is the whole of and nothing else holds; nil for a cached one.
	run *core.Map
}

// recycle gives the storage of an uncached reply's map back to its pool
// and clears Map, so a late read panics. A map a cache entry holds is
// left alone. The caller must be done with resp: /v1/place calls it once
// the reply is written.
func (resp *Response) recycle() {
	if resp.run != nil {
		core.Recycle(resp.run)
		resp.Map, resp.run = core.Map{}, nil
	}
}

// clusterEntry is one registered cluster: the currently published
// snapshot and its publication number, swapped together under mu.
type clusterEntry struct {
	mu   sync.RWMutex
	snap *Snapshot //lama:guards mu
	pub  uint64    //lama:guards mu
}

// current returns the published snapshot and its publication number.
func (ce *clusterEntry) current() (*Snapshot, uint64) {
	ce.mu.RLock()
	defer ce.mu.RUnlock()
	return ce.snap, ce.pub
}

// worker is one pool slot: reusable Mapper state keyed by (cluster,
// layout), handed to the policy as place.Request.Mapper. The lama policy
// re-points a mapper at each request's snapshot cluster; core's dense-tree
// freshness check (topology identity) revalidates it, and a stale tree is
// refreshed in place, resolving shapes only for the nodes whose topology
// changed. Other policies ignore the mapper. The map holds at most
// maxWorkerMappers entries.
type worker struct {
	mappers map[mapperKey]*core.Mapper
}

// mapperKey names a worker's mapper: a cluster and a layout text. A
// struct key, unlike a joined string, costs a lookup no allocation.
type mapperKey struct{ cluster, layout string }

// maxWorkerMappers caps a worker's mapper map. Its keys come from request
// input and a mapper over a 4096-node cluster holds about 0.4 MB, so the
// map is cleared when full rather than left to grow with every distinct
// layout a client sends. Clearing, not evicting, keeps map iteration out
// of this deterministic package; a cleared mapper's next request rebuilds
// it, which changes no output.
const maxWorkerMappers = 16

// mapper returns the worker's mapper for a cluster and layout text.
func (w *worker) mapper(cluster, layout string) *core.Mapper {
	if layout == "" {
		// The lama default: share its mapper, since an idle duplicate
		// would pin the snapshot it last mapped on.
		layout = "csbnh"
	}
	key := mapperKey{cluster, layout}
	mp := w.mappers[key]
	if mp == nil {
		if len(w.mappers) >= maxWorkerMappers {
			clear(w.mappers)
		}
		mp = &core.Mapper{}
		w.mappers[key] = mp
	}
	return mp
}

// Engine serves placement requests against registered cluster snapshots.
type Engine struct {
	cfg Config

	mu       sync.RWMutex
	clusters map[string]*clusterEntry //lama:guards mu
	// pubs mints publication numbers, one per Register or Swap.
	pubs atomic.Uint64

	workers chan *worker
	queue   chan struct{}

	cache *lruCache

	hits, prefixHits, misses, stale, shed *obs.Counter
	queueDepth                            *obs.Gauge
}

// New builds an engine from a config.
func New(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	budget := cfg.CacheBytes
	if budget == 0 {
		budget = defaultCacheBytes
	}
	if budget < 0 {
		budget = 0
	}
	reg := cfg.Obs.Reg()
	e := &Engine{
		cfg:      cfg,
		clusters: map[string]*clusterEntry{},
		workers:  make(chan *worker, cfg.Workers),
		queue:    make(chan struct{}, cfg.QueueDepth),
		cache:    newLRU(budget, reg),
	}
	for i := 0; i < cfg.Workers; i++ {
		e.workers <- &worker{mappers: map[mapperKey]*core.Mapper{}}
	}
	e.hits = reg.Counter("lama_engine_cache_hits_total")
	e.prefixHits = reg.Counter("lama_engine_cache_prefix_hits_total")
	e.misses = reg.Counter("lama_engine_cache_misses_total")
	e.stale = reg.Counter("lama_engine_cache_stale_total")
	e.shed = reg.Counter("lama_engine_shed_total")
	e.queueDepth = reg.Gauge("lama_engine_queue_depth")
	return e
}

// Register publishes a cluster's snapshot under a name, or replaces its
// snapshot wholesale, at whatever epoch the snapshot carries. Replacing
// purges every cache entry of the cluster as stale: they all belong to
// earlier publications. The snapshot must not be mutated by the caller
// afterwards.
func (e *Engine) Register(name string, snap *Snapshot) error {
	if name == "" || snap == nil || snap.Clu == nil {
		return fmt.Errorf("engine: Register needs a name and a snapshot")
	}
	e.mu.Lock()
	ce := e.clusters[name]
	if ce == nil {
		ce = &clusterEntry{}
		e.clusters[name] = ce
	}
	// Published under mu, so no request finds the entry empty.
	_, pub := e.publish(ce, snap)
	e.mu.Unlock()
	e.stale.Add(int64(e.cache.purge(name, pub)))
	if o := e.cfg.Obs; o.Enabled() {
		o.Emit(obs.SrcEngine, obs.EvRegister,
			obs.F("cluster", name),
			obs.F("nodes", snap.Clu.NumNodes()),
			obs.F("epoch", snap.Clu.Epoch()))
	}
	return nil
}

// Clusters lists the registered cluster names, sorted.
func (e *Engine) Clusters() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.clusters))
	for name := range e.clusters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// publish makes snap the entry's snapshot under a fresh publication
// number, and returns the snapshot it replaced and that number.
func (e *Engine) publish(ce *clusterEntry, snap *Snapshot) (*Snapshot, uint64) {
	ce.mu.Lock()
	defer ce.mu.Unlock()
	prev := ce.snap
	ce.snap, ce.pub = snap, e.pubs.Add(1)
	return prev, ce.pub
}

// Snapshot returns the cluster's current published snapshot, or nil.
func (e *Engine) Snapshot(name string) *Snapshot {
	e.mu.RLock()
	ce := e.clusters[name]
	e.mu.RUnlock()
	if ce == nil {
		return nil
	}
	snap, _ := ce.current()
	return snap
}

// Swap atomically publishes next as the cluster's snapshot and purges the
// cluster's cache entries of earlier publications, counting them as
// stale. Returns the count of purged entries.
func (e *Engine) Swap(name string, next *Snapshot) (int, error) {
	if next == nil || next.Clu == nil {
		return 0, fmt.Errorf("engine: Swap with nil snapshot")
	}
	e.mu.RLock()
	ce := e.clusters[name]
	e.mu.RUnlock()
	if ce == nil {
		return 0, fmt.Errorf("%w: %q", ErrUnknownCluster, name)
	}
	prev, pub := e.publish(ce, next)
	purged := e.cache.purge(name, pub)
	e.stale.Add(int64(purged))
	if o := e.cfg.Obs; o.Enabled() {
		var from uint64
		if prev != nil {
			from = prev.Clu.Epoch()
		}
		o.Emit(obs.SrcEngine, obs.EvSwap,
			obs.F("cluster", name),
			obs.F("from_epoch", from),
			obs.F("to_epoch", next.Clu.Epoch()),
			obs.F("stale_purged", purged))
	}
	return purged, nil
}

// Place serves one placement request. The context gates both admission
// (a request whose context expires while queued is shed) and the mapping
// run itself (cancellation at sweep boundaries).
//
// For a prefix-closed policy the cache holds one run per key, the longest
// so far, and serves any np up to its length from it. A miss past a
// stored run of L ranks maps up to 2L ranks (see extendTo), so the
// entry's growth costs amortised O(np).
func (e *Engine) Place(ctx context.Context, req *Request) (*Response, error) {
	if req == nil {
		return nil, fmt.Errorf("engine: nil request")
	}
	if req.NP < 1 || req.NP > MaxNP {
		return nil, fmt.Errorf("engine: np %d out of range [1, %d]", req.NP, MaxNP)
	}
	if math.IsNaN(req.Bytes) || math.IsInf(req.Bytes, 0) {
		return nil, fmt.Errorf("engine: bytes %g is not finite", req.Bytes)
	}
	if _, ok := commpat.ByName(req.Pattern); req.Pattern != "" && !ok {
		return nil, fmt.Errorf("engine: unknown traffic pattern %q", req.Pattern)
	}
	e.mu.RLock()
	ce := e.clusters[req.Cluster]
	e.mu.RUnlock()
	if ce == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownCluster, req.Cluster)
	}
	snap, pub := ce.current()
	epoch := snap.Clu.Epoch()
	if req.Epoch != 0 && req.Epoch != epoch {
		return nil, fmt.Errorf("%w: request pinned epoch %d, cluster %q is at %d",
			ErrStaleSnapshot, req.Epoch, req.Cluster, epoch)
	}
	key, closed := keyOf(req, pub)
	cached := !req.NoCache && e.cache.enabled()
	stored := 0 // ranks of the run stored on key
	if cached {
		if ent := e.cache.get(key); ent != nil {
			if stored = ent.m.NumRanks(); req.NP <= stored {
				e.hits.Inc()
				if req.NP < stored {
					e.prefixHits.Inc()
				}
				return &Response{Map: ent.m.Prefix(req.NP), Epoch: epoch, Cached: true, entry: ent}, nil
			}
		}
	}

	// Admission: a bounded number of requests may wait for a worker; the
	// rest are shed immediately. Queued requests are shed the moment
	// their deadline expires rather than holding the slot.
	select {
	case e.queue <- struct{}{}:
	default:
		return nil, e.shedReq(req, "queue-full")
	}
	e.queueDepth.Set(float64(len(e.queue)))
	var w *worker
	select {
	case w = <-e.workers:
	case <-ctx.Done():
		<-e.queue
		e.queueDepth.Set(float64(len(e.queue)))
		return nil, e.shedReq(req, "deadline")
	}
	<-e.queue
	e.queueDepth.Set(float64(len(e.queue)))

	np := req.NP
	if cached && closed {
		np = extendTo(req.NP, stored, snap.Clu.Cluster().TotalUsablePUs()/key.pes)
	}
	m, err := e.place(ctx, w, snap, req, np)
	if err != nil && np > req.NP {
		// The longer run can fail where np does not (usable/pes
		// overestimates a layout whose leaves hold fewer than pes PUs),
		// and a stall's error names its np: the request gets its own run.
		m, err = e.place(ctx, w, snap, req, req.NP)
	}
	e.workers <- w
	if err != nil {
		return nil, err
	}
	e.misses.Inc()
	resp := &Response{Map: m.Prefix(req.NP), Epoch: epoch}
	if cached {
		resp.entry = newEntry(key, m)
		e.cache.put(resp.entry)
	} else {
		resp.run = m
	}
	return resp, nil
}

// extendTo is the rank count a miss on a prefix-closed key maps: np, or,
// past a stored run of that key, up to twice the stored length, capped by
// the ranks the cluster can hold without oversubscribing and by MaxNP.
// Doubling bounds the runs that grow an entry to a logarithmic number,
// their total to a constant times the largest np, and a small job never
// maps the whole cluster. A first miss (stored 0) maps exactly np.
func extendTo(np, stored, capacity int) int {
	return max(np, min(2*stored, capacity, MaxNP))
}

// shedReq counts and reports one shed request.
func (e *Engine) shedReq(req *Request, why string) error {
	e.shed.Inc()
	if o := e.cfg.Obs; o.Enabled() {
		o.Emit(obs.SrcEngine, obs.EvShed,
			obs.F("cluster", req.Cluster),
			obs.F("np", req.NP),
			obs.F("reason", why))
	}
	return fmt.Errorf("%w (%s)", ErrOverloaded, why)
}

// place maps np ranks for the request on a pool worker, through the
// policy registry, with the worker's mapper for the request's cluster and
// layout. np differs from req.NP only for a prefix-closed policy, which
// reads no traffic. The request's traffic matrix is place's alone: no
// policy keeps it, so its storage goes back to the pool on return.
func (e *Engine) place(ctx context.Context, w *worker, snap *Snapshot, req *Request, np int) (*core.Map, error) {
	policy := req.Policy
	if policy == "" {
		policy = "lama"
	}
	preq := &place.Request{
		Cluster: snap.Clu.Cluster(),
		NP:      np,
		Opts: core.Options{
			Oversubscribe: req.Oversubscribe,
			PEsPerProc:    req.PEsPerProc,
		},
	}
	if req.Layout != "" {
		layout, err := core.ParseLayout(req.Layout)
		if err != nil {
			return nil, err
		}
		preq.Layout = layout
	}
	if req.Pattern != "" {
		gen, _ := commpat.ByName(req.Pattern) // Place rejected an unknown name
		// Only a policy that reads traffic gets it, and only once np has
		// passed the capacity check and the pair bound.
		p, _ := place.Lookup(policy)
		if _, reads := p.(place.TrafficAware); reads {
			if usable := preq.Cluster.TotalUsablePUs(); req.NP > usable {
				return nil, fmt.Errorf("engine: np %d exceeds the %d usable PUs a traffic-aware policy can place", req.NP, usable)
			}
			if req.NP*(req.NP-1) > maxTrafficPairs {
				return nil, fmt.Errorf("engine: np %d is past the traffic bound of %d communicating pairs", req.NP, maxTrafficPairs)
			}
			bytes := req.Bytes
			if bytes <= 0 {
				bytes = 1 << 20
			}
			preq.Traffic = gen(req.NP, bytes)
			defer preq.Traffic.Release()
		}
	}
	preq.Mapper = w.mapper(req.Cluster, req.Layout)
	return place.Place(ctx, policy, preq)
}
