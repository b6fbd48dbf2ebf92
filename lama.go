// Package lama is a Go reproduction of the Locality-Aware Mapping
// Algorithm (LAMA) from "Locality-Aware Parallel Process Mapping for
// Multi-Core HPC Systems" (Hursey, Squyres, Dontje; IEEE CLUSTER 2011),
// together with the simulated substrate it needs: hardware topologies,
// clusters, resource management, binding, launch, baseline mappers, and a
// communication-cost simulator.
//
// The typical flow mirrors the paper's §III:
//
//	spec, _ := lama.Preset("nehalem-ep")
//	cluster := lama.Homogeneous(4, spec)             // the allocation
//	layout := lama.MustParseLayout("scbnh")          // the process layout
//	mapper, _ := lama.NewMapper(cluster, layout, lama.Options{})
//	m, _ := mapper.Map(64)                           // 1) mapping
//	plan, _ := lama.Bind(cluster, m, lama.BindSpecific, lama.LevelCore)
//	job, _ := lama.NewRuntime(cluster).Launch(m, plan, 100) // 2) binding+launch
//
// Mapping quality can be evaluated against synthetic application traffic:
//
//	model := lama.NewModel(lama.NewFlatNetwork())
//	report, _ := model.Evaluate(cluster, m, lama.GTC(64, 1<<20))
//
// The subpackages under internal/ hold the implementations; this package
// re-exports the stable API surface.
package lama

import (
	"context"
	"lama/internal/appsim"
	"lama/internal/bind"
	"lama/internal/cluster"
	"lama/internal/coll"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/hw"
	"lama/internal/metrics"
	"lama/internal/mpirun"
	"lama/internal/netsim"
	"lama/internal/orte"
	"lama/internal/place"
	_ "lama/internal/place/all" // link every built-in placement policy
	"lama/internal/rankfile"
	"lama/internal/rm"
	"lama/internal/torus"
)

// ---- Hardware topologies (paper Table I substrate) ----

// Level identifies a hardware resource level (node, board, socket, NUMA,
// caches, core, hardware thread).
type Level = hw.Level

// Resource levels in canonical containment order.
const (
	LevelMachine = hw.LevelMachine
	LevelBoard   = hw.LevelBoard
	LevelSocket  = hw.LevelSocket
	LevelNUMA    = hw.LevelNUMA
	LevelL3      = hw.LevelL3
	LevelL2      = hw.LevelL2
	LevelL1      = hw.LevelL1
	LevelCore    = hw.LevelCore
	LevelPU      = hw.LevelPU
)

// Spec declares a regular single-node topology; Topology is the built tree.
type (
	Spec     = hw.Spec
	Topology = hw.Topology
	Object   = hw.Object
	CPUSet   = hw.CPUSet
)

// NewTopology builds a topology from a spec.
func NewTopology(sp Spec) *Topology { return hw.New(sp) }

// Preset returns a named vendor-like node spec (e.g. "nehalem-ep",
// "magny-cours", "power7", "bgp-node").
func Preset(name string) (Spec, bool) { return hw.Preset(name) }

// PresetNames lists the available presets.
func PresetNames() []string { return hw.PresetNames() }

// ParseSpec parses a preset name, "s:c:h", or the 8-width colon form.
func ParseSpec(text string) (Spec, error) { return hw.ParseSpec(text) }

// ParseCPUSet parses hwloc list syntax such as "0-3,8".
func ParseCPUSet(text string) (*CPUSet, error) { return hw.ParseCPUSet(text) }

// ParseSynthetic parses an hwloc-style synthetic topology description
// such as "socket:2 core:4 pu:2".
func ParseSynthetic(text string) (Spec, error) { return hw.ParseSynthetic(text) }

// FormatSynthetic renders a spec in hwloc synthetic form.
func FormatSynthetic(sp Spec) string { return hw.FormatSynthetic(sp) }

// ---- Clusters and resource management (§III-A) ----

// Cluster is an ordered set of compute nodes; ClusterNode is one node.
type (
	Cluster     = cluster.Cluster
	ClusterNode = cluster.Node
)

// Homogeneous builds a cluster of n identical nodes.
func Homogeneous(n int, sp Spec) *Cluster { return cluster.Homogeneous(n, sp) }

// FromSpecs builds a heterogeneous cluster, one node per spec.
func FromSpecs(specs ...Spec) *Cluster { return cluster.FromSpecs(specs...) }

// ParseHostfile builds a cluster from hostfile text.
func ParseHostfile(text string, def Spec) (*Cluster, error) {
	return cluster.ParseHostfile(text, def)
}

// ResourceManager grants node- or core-granular allocations from a node
// pool.
type (
	ResourceManager = rm.Manager
	Allocation      = rm.Allocation
	AllocPolicy     = rm.Policy
)

// Allocation policies.
const (
	AllocWholeNode    = rm.WholeNode
	AllocCoreGranular = rm.CoreGranular
)

// NewResourceManager creates a manager over a node pool.
func NewResourceManager(pool *Cluster) *ResourceManager { return rm.NewManager(pool) }

// ---- The LAMA (§IV) ----

// Layout is a parsed process layout; Mapper plans placements; Map is the
// resulting plan.
type (
	Layout    = core.Layout
	Mapper    = core.Mapper
	Map       = core.Map
	Placement = core.Placement
	Options   = core.Options
	IterOrder = core.IterOrder
)

// Mapping errors.
var (
	ErrOversubscribe = core.ErrOversubscribe
	ErrNoResources   = core.ErrNoResources
)

// ParseLayout parses a layout string such as "scbnh".
func ParseLayout(text string) (Layout, error) { return core.ParseLayout(text) }

// MustParseLayout is ParseLayout that panics on error.
func MustParseLayout(text string) Layout { return core.MustParseLayout(text) }

// NewMapper builds a mapper for a cluster, layout, and options.
func NewMapper(c *Cluster, l Layout, o Options) (*Mapper, error) {
	return core.NewMapper(c, l, o)
}

// SequentialOrder and ReverseOrder are the built-in per-level iteration
// orders (paper Fig. 1 line 13 and §IV-A).
func SequentialOrder(width int) []int { return core.SequentialOrder(width) }

// ReverseOrder visits resources in descending index order.
func ReverseOrder(width int) []int { return core.ReverseOrder(width) }

// ---- Binding (§III-B) ----

// BindPolicy selects the binding restriction; BindPlan is the result.
type (
	BindPolicy = bind.Policy
	BindPlan   = bind.Plan
	Binding    = bind.Binding
)

// Binding policies.
const (
	BindNone     = bind.None
	BindLimited  = bind.Limited
	BindSpecific = bind.Specific
)

// Bind computes a binding plan from a map.
func Bind(c *Cluster, m *Map, p BindPolicy, level Level) (*BindPlan, error) {
	return bind.Compute(c, m, p, level)
}

// ---- Rankfiles and the mpirun interface (§V) ----

// Rankfile is a parsed irregular-placement file (Level 4).
type Rankfile = rankfile.File

// ParseRankfile parses rankfile text.
func ParseRankfile(text string) (*Rankfile, error) { return rankfile.Parse(text) }

// ApplyRankfile resolves a rankfile against a cluster.
func ApplyRankfile(f *Rankfile, c *Cluster) (*Map, error) { return rankfile.Apply(f, c) }

// LaunchRequest is a parsed mpirun-style command line; LaunchResult is the
// planned map plus binding plan.
type (
	LaunchRequest = mpirun.Request
	LaunchResult  = mpirun.Result
)

// ParseArgs parses an mpirun-style argument list (all four abstraction
// levels of §V).
func ParseArgs(args []string) (*LaunchRequest, error) { return mpirun.Parse(args) }

// Execute plans a request against a cluster. The context cancels the
// place/stage phases at their boundaries.
func Execute(ctx context.Context, req *LaunchRequest, c *Cluster) (*LaunchResult, error) {
	return mpirun.Execute(ctx, req, c)
}

// ShortcutLayout returns the Level 3 layout a Level 2 shortcut lowers to.
func ShortcutLayout(name string) (string, bool) { return mpirun.ShortcutLayout(name) }

// ---- Launch simulation ----

// Runtime launches mapped jobs; Job is a completed run; Process one rank.
type (
	Runtime = orte.Runtime
	Job     = orte.Job
	Process = orte.Process
)

// NewRuntime creates a launch runtime over a cluster.
func NewRuntime(c *Cluster) *Runtime { return orte.NewRuntime(c) }

// ---- Placement policy registry ----

// Policy is one named placement strategy; PlaceRequest bundles every input
// any strategy may consume; PlaceStage is a composable post-pass (e.g.
// network-aware node ordering or rank-swap refinement) and PlacePipeline
// the place→stages execution path; PlaceJob pairs a policy with a request
// for cross-policy sweeps.
type (
	Policy        = place.Policy
	PlaceRequest  = place.Request
	PlaceStage    = place.Stage
	PlacePipeline = place.Pipeline
	PlaceJob      = place.Job
)

// LookupPolicy resolves a registered policy by name.
func LookupPolicy(name string) (Policy, bool) { return place.Lookup(name) }

// Place resolves a policy by name and runs it under the uniform
// instrumentation contract (see place.Run).
func Place(ctx context.Context, name string, req *PlaceRequest) (*Map, error) {
	return place.Place(ctx, name, req)
}

// PlaceSweep runs every job across a bounded worker pool; results are in
// job order. Each worker reuses one Mapper across its "lama" jobs, so a
// layout sweep is a list of "lama" jobs that differ only in Layout.
func PlaceSweep(ctx context.Context, jobs []PlaceJob, workers int) ([]*Map, error) {
	return place.Sweep(ctx, jobs, workers)
}

// ---- Torus shapes (§II comparators) ----

// TorusDims is a 3-D torus shape, the "torus" policy's
// PlaceRequest.TorusDims. The §II comparators (by-slot, by-node, pack,
// scatter, random, plane, torus, treematch) run through Place by name.
type TorusDims = torus.Dims

// TorusOrders lists all 24 XYZT iteration orders.
func TorusOrders() []string { return torus.Orders() }

// ---- Communication-cost simulation ----

// Model evaluates traffic matrices against mappings; Network is the
// inter-node interconnect model; Report the evaluation result.
type (
	Model         = netsim.Model
	Network       = netsim.Network
	Report        = netsim.Report
	TrafficMatrix = commpat.Matrix
)

// NewModel builds a cost model with default intra-node parameters.
func NewModel(n Network) *Model { return netsim.NewModel(n) }

// NewFlatNetwork returns an idealized single-switch network.
func NewFlatNetwork() Network { return netsim.NewFlat() }

// NewFatTreeNetwork returns a two-level fat-tree with the given leaf size.
func NewFatTreeNetwork(leafSize int) Network { return netsim.NewFatTree(leafSize) }

// NewTorusNetwork returns a 3-D torus network with link congestion
// modeling.
func NewTorusNetwork(d TorusDims) Network { return netsim.NewTorus3D(d) }

// Traffic patterns (motivating applications of §I/§II).
func Ring(n int, bytes float64) *TrafficMatrix     { return commpat.Ring(n, bytes) }
func AllToAll(n int, bytes float64) *TrafficMatrix { return commpat.AllToAll(n, bytes) }
func GTC(n int, bytes float64) *TrafficMatrix      { return commpat.GTC(n, bytes) }
func NASCG(n int, bytes float64) *TrafficMatrix    { return commpat.NASCG(n, bytes) }
func NASMG(n int, bytes float64) *TrafficMatrix    { return commpat.NASMG(n, bytes) }
func NASFT(n int, bytes float64) *TrafficMatrix    { return commpat.NASFT(n, bytes) }
func NASLU(n int, bytes float64) *TrafficMatrix    { return commpat.NASLU(n, bytes) }

// Stencil2D builds a 5-point halo-exchange pattern on a px x py grid.
func Stencil2D(px, py int, bytes float64, periodic bool) *TrafficMatrix {
	return commpat.Stencil2D(px, py, bytes, periodic)
}

// Stencil3D builds a 7-point halo-exchange pattern on a px x py x pz grid.
func Stencil3D(px, py, pz int, bytes float64, periodic bool) *TrafficMatrix {
	return commpat.Stencil3D(px, py, pz, bytes, periodic)
}

// Grid2D factors n into a near-square process grid.
func Grid2D(n int) (px, py int) { return commpat.Grid2D(n) }

// ---- Collectives ----

// CollOp identifies an MPI collective algorithm; CollResult its simulated
// completion under a mapping.
type (
	CollOp     = coll.Op
	CollResult = coll.Result
)

// Collective operations.
const (
	Broadcast     = coll.Broadcast
	AllreduceRD   = coll.AllreduceRD
	AllreduceRing = coll.AllreduceRing
	AlltoallOp    = coll.Alltoall
	Barrier       = coll.Barrier
)

// RunCollective simulates a collective over the mapped job.
func RunCollective(op CollOp, c *Cluster, m *Map, model *Model, bytes float64) (*CollResult, error) {
	return coll.Run(op, c, m, model, bytes)
}

// ---- Application simulation ----

// AppConfig and AppResult describe the BSP application simulator: per
// iteration, a compute phase followed by a communication phase bounded by
// the busiest rank or network link.
type (
	AppConfig = appsim.Config
	AppResult = appsim.Result
)

// SimulateApp runs the BSP application simulation for a mapped job.
func SimulateApp(c *Cluster, m *Map, model *Model, tm *TrafficMatrix, cfg AppConfig) (*AppResult, error) {
	return appsim.Run(c, m, model, tm, cfg)
}

// Speedup returns a.TotalUs / b.TotalUs.
func Speedup(a, b *AppResult) float64 { return appsim.Speedup(a, b) }

// ---- Metrics ----

// MapSummary aggregates structural mapping quality.
type MapSummary = metrics.MapSummary

// Summarize computes a MapSummary for a map.
func Summarize(c *Cluster, m *Map) MapSummary { return metrics.Summarize(c, m) }

// ---- Tracing and rankfile export ----

// TraceEvent records one coordinate visit of the mapping iteration;
// TraceAction classifies it (use Mapper.MapTraced to produce traces).
type (
	TraceEvent  = core.TraceEvent
	TraceAction = core.TraceAction
)

// Trace actions.
const (
	TraceMapped          = core.Mapped
	TraceSkipNonexistent = core.SkipNonexistent
	TraceSkipUnavailable = core.SkipUnavailable
	TraceSkipOversub     = core.SkipOversub
	TraceSkipCapped      = core.SkipCapped
)

// RankfileFromMap freezes any mapping plan into Level 4 rankfile form.
func RankfileFromMap(m *Map) (*Rankfile, error) { return rankfile.FromMap(m) }

// FormatRankfile renders a rankfile back to text.
func FormatRankfile(f *Rankfile) string { return rankfile.Format(f) }

// DecodeMap reconstructs a JSON-encoded map against its cluster.
func DecodeMap(data []byte, c *Cluster) (*Map, error) { return core.DecodeMap(data, c) }

// ParseTrafficMatrix reads a traffic matrix from edge-list text
// ("ranks N" header, then "<src> <dst> <bytes>" lines).
func ParseTrafficMatrix(text string) (*TrafficMatrix, error) { return commpat.ParseMatrix(text) }

// FormatTrafficMatrix renders a matrix in edge-list form.
func FormatTrafficMatrix(m *TrafficMatrix) string { return commpat.FormatMatrix(m) }

// RunHierarchicalCollective simulates the two-level (node-leader) variant
// of a collective; ops other than Broadcast/AllreduceRD fall back to the
// flat algorithms.
func RunHierarchicalCollective(op CollOp, c *Cluster, m *Map, model *Model, bytes float64) (*CollResult, error) {
	return coll.RunHierarchical(op, c, m, model, bytes)
}
