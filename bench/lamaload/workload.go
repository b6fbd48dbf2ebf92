package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"lama/internal/cluster"
	"lama/internal/engine"
	"lama/internal/hw"
)

// The site every workload runs against: one large datacenter cluster that
// takes the churn events and one partition that takes the job traffic.
const (
	clusterFlag = "dc=4096xnehalem-ep,part=256xnehalem-ep"
	nodeSpec    = "nehalem-ep"
	dcNodes     = 4096
	partNodes   = 256
)

// eventEvery spaces churn-dc's cluster events by placements issued, not by
// time: the mix of event and placement work is then the same at any speed.
// Timed events (one per 100 ms) made throughput swing 4x between runs,
// because each event forces a full view rebuild per pooled mapper and a
// slower run amortizes that fixed cost over fewer placements.
const eventEvery = 250

// workload is one traffic mix: a pure function from (seed, request index)
// to a placement request, plus whether cluster events ride along.
type workload struct {
	name   string
	why    string
	events bool
	gen    func(h uint64) engine.Request
}

var workloads = []*workload{
	{
		name: "repeat-jobs",
		why:  "31 recurring job shapes on part: the cache serves almost every request, so encode and HTTP dominate",
		gen: func(h uint64) engine.Request {
			k := int(h % 31)
			return engine.Request{Cluster: "part", NP: int(64 * math.Pow(2, float64(k)/5)), Layout: "csbnh"}
		},
	},
	{
		name: "distinct-jobs",
		why:  "np uniform in [64,4096] over 8 layouts: nearly every request misses, so the mapper and encode dominate",
		gen: func(h uint64) engine.Request {
			return engine.Request{Cluster: "part", NP: 64 + int(h%4033), Layout: distinctLayouts[(h>>32)%8]}
		},
	},
	{
		name:   "churn-dc",
		why:    "small jobs on the 4096-node dc while an event every 250 placements swaps its snapshot and purges the cache",
		events: true,
		gen: func(h uint64) engine.Request {
			k := int(h % 13)
			return engine.Request{Cluster: "dc", NP: int(16 * math.Pow(2, float64(k)/3)), Layout: churnLayouts[(h>>32)%2]}
		},
	},
	{
		name: "traffic-aware",
		why:  "uncached traffic-aware policies on part: the registry path, commpat and treematch, bypassing the lama mapper and cache",
		gen: func(h uint64) engine.Request {
			return engine.Request{
				Cluster: "part",
				NP:      64 * (1 + int((h>>16)%8)),
				Policy:  trafficPolicies[h%5],
				Pattern: trafficPatterns[(h>>8)%3],
				NoCache: true,
			}
		},
	},
}

var (
	distinctLayouts = []string{"csbnh", "scbnh", "hcsbn", "nhcsb", "bnhcs", "sbnhc", "hnbsc", "cnshb"}
	churnLayouts    = []string{"csbnh", "ncsbh"}
	trafficPolicies = []string{"treematch", "torus", "by-node", "scatter", "pack"}
	trafficPatterns = []string{"gtc", "ring", "stencil2d"}
)

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// splitmix64 is the per-request hash: request i of seed s depends on
// nothing but (s, i), so any caller may send any index and a replay sees
// the same stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func draw(seed int64, i int) uint64 { return splitmix64(splitmix64(uint64(seed)) + uint64(i)) }

// request returns request i of the seeded stream.
func (w *workload) request(seed int64, i int) engine.Request { return w.gen(draw(seed, i)) }

// body is request i's wire form.
func (w *workload) body(seed int64, i int) []byte {
	b, err := json.Marshal(w.request(seed, i))
	if err != nil {
		panic(err) // engine.Request holds only strings, numbers and bools
	}
	return b
}

// site builds the two clusters exactly as lamad's -clusters flag does.
func site() (dc, part *cluster.Snapshot, err error) {
	sp, err := hw.ParseSpec(nodeSpec)
	if err != nil {
		return nil, nil, err
	}
	return cluster.SnapshotOf(cluster.Homogeneous(dcNodes, sp)), cluster.SnapshotOf(cluster.Homogeneous(partNodes, sp)), nil
}

// churnStep is one churn-dc event and the snapshot the engine must reach
// by applying it.
type churnStep struct {
	ev   engine.Event
	body []byte
	snap *cluster.Snapshot
	// deriveUs is the cluster.Snapshot derivation's own time.
	deriveUs float64
}

// churnChain is churn-dc's seeded event sequence, derived on demand from
// the dc snapshot through the same copy-on-write derivations the engine
// uses. Events cycle fail-pus (one usable PU), fail-node (a node not
// failed yet) and add-node. The chain is both the event source and the
// oracle's epoch -> snapshot mirror. It is not safe for concurrent use;
// callers already serialize events.
type churnChain struct {
	seed   int64
	base   *cluster.Snapshot
	failed map[int]bool
	steps  []churnStep
}

func newChurnChain(seed int64, base *cluster.Snapshot) *churnChain {
	return &churnChain{seed: seed, base: base, failed: map[int]bool{}}
}

// step returns event k, deriving the chain up to it.
func (c *churnChain) step(k int) (churnStep, error) {
	for len(c.steps) <= k {
		if err := c.extend(); err != nil {
			return churnStep{}, err
		}
	}
	return c.steps[k], nil
}

// snapshots lists the chain's snapshots by epoch: index epoch-1.
func (c *churnChain) snapshots() []*cluster.Snapshot {
	out := []*cluster.Snapshot{c.base}
	for _, s := range c.steps {
		out = append(out, s.snap)
	}
	return out
}

func (c *churnChain) extend() error {
	k := len(c.steps)
	cur := c.base
	if k > 0 {
		cur = c.steps[k-1].snap
	}
	h := splitmix64(draw(c.seed, k) ^ 0xc4)
	var ev engine.Event
	var next *cluster.Snapshot
	t0 := time.Now()
	switch k % 3 {
	case 0:
		node := liveNode(cur, c.failed, int(h%uint64(cur.NumNodes())))
		pus := cur.Cluster().Node(node).Topo.Root.UsablePUs()
		pu := pus[int((h>>32)%uint64(len(pus)))].OS
		ev = engine.Event{Type: "fail-pus", Node: node, PUs: []int{pu}}
		next, _ = cur.FailPUs(node, hw.NewCPUSet(pu))
	case 1:
		node := liveNode(cur, c.failed, int(h%uint64(cur.NumNodes())))
		c.failed[node] = true
		ev = engine.Event{Type: "fail-node", Node: node}
		next, _ = cur.FailNode(node)
	default:
		sp, ok := hw.Preset(nodeSpec)
		if !ok {
			return fmt.Errorf("no preset %q", nodeSpec)
		}
		ev = engine.Event{Type: "add-node", Preset: nodeSpec}
		next = cur.AppendNode(&cluster.Node{Name: fmt.Sprintf("node%d", cur.NumNodes()), Topo: hw.New(sp)})
	}
	us := sinceUs(t0)
	if next.Epoch() != cur.Epoch()+1 {
		return fmt.Errorf("churn event %d (%s) did not derive a new epoch", k, ev.Type)
	}
	body, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	c.steps = append(c.steps, churnStep{ev: ev, body: body, snap: next, deriveUs: us})
	return nil
}

// liveNode returns the first node at or after start (wrapping) that has not
// failed and still has a usable PU.
func liveNode(s *cluster.Snapshot, failed map[int]bool, start int) int {
	n := s.NumNodes()
	for d := 0; d < n; d++ {
		i := (start + d) % n
		if !failed[i] && len(s.Cluster().Node(i).Topo.Root.UsablePUs()) > 0 {
			return i
		}
	}
	panic("churn chain failed every node") // the chain is far shorter than the cluster
}
