package place

import (
	"context"

	"lama/internal/core"
)

// lamaPolicy adapts the LAMA itself (core.Mapper) to the registry. It
// lives here rather than in internal/core because core is the vocabulary
// this package is defined in terms of — registering it from core would be
// an import cycle.
type lamaPolicy struct{}

// defaultLayout is the Level-1 by-slot pattern of the paper's §V.
var defaultLayout = core.MustParseLayout("csbnh")

// Name returns "lama".
func (lamaPolicy) Name() string { return "lama" }

// SelfObserving marks that core.Mapper.Map instruments itself (place span,
// prune/build-shape/sweep spans, "map"/"done" event, latency metrics); Run
// must not wrap it a second time.
func (lamaPolicy) SelfObserving() {}

// PrefixClosed marks that np is only the LAMA's stop test (paper Fig. 1).
func (lamaPolicy) PrefixClosed() {}

// PEsAware marks that the LAMA claims Opts.PEsPerProc PUs per rank.
func (lamaPolicy) PEsAware() {}

// Place maps via the LAMA using req.Layout (default "csbnh") and the full
// option set, on req.Mapper when the caller keeps one.
func (lamaPolicy) Place(ctx context.Context, req *Request) (*core.Map, error) {
	mp := req.Mapper
	if mp == nil {
		mp = &core.Mapper{}
	}
	mp.Cluster, mp.Layout, mp.Opts = req.Cluster, req.Layout, req.Opts
	if len(mp.Layout.Levels()) == 0 {
		mp.Layout = defaultLayout
	}
	return mp.MapContext(ctx, req.NP)
}

func init() { Register(lamaPolicy{}) }
