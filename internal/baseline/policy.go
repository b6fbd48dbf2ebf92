package baseline

import (
	"context"

	"lama/internal/core"
	"lama/internal/place"
)

// policy adapts one baseline mapper to the place registry.
type policy struct {
	name string
	run  func(req *place.Request) (*core.Map, error)
}

func (p policy) Name() string { return p.name }

// PrefixClosed marks that every baseline enumerates its slots in an
// order np does not change and stops at np.
func (policy) PrefixClosed() {}

// Place runs the adapted baseline. The baselines are single-pass and
// fast; the context is accepted for interface uniformity only.
func (p policy) Place(_ context.Context, req *place.Request) (*core.Map, error) { return p.run(req) }

// The baselines register under the paper's §II vocabulary. Request fields
// consumed: "pack"/"scatter" read PackLevel (zero = machine level),
// "random" reads Seed, "plane" reads BlockSize (zero = 1).
func init() {
	place.Register(policy{"by-slot", func(r *place.Request) (*core.Map, error) {
		return BySlot(r.Cluster, r.NP)
	}})
	place.Register(policy{"by-node", func(r *place.Request) (*core.Map, error) {
		return ByNode(r.Cluster, r.NP)
	}})
	place.Register(policy{"pack", func(r *place.Request) (*core.Map, error) {
		return Pack(r.Cluster, r.PackLevel, r.NP)
	}})
	place.Register(policy{"scatter", func(r *place.Request) (*core.Map, error) {
		return Scatter(r.Cluster, r.PackLevel, r.NP)
	}})
	place.Register(policy{"random", func(r *place.Request) (*core.Map, error) {
		return Random(r.Cluster, r.Seed, r.NP)
	}})
	place.Register(policy{"plane", func(r *place.Request) (*core.Map, error) {
		block := r.BlockSize
		if block <= 0 {
			block = 1
		}
		return Plane(r.Cluster, block, r.NP)
	}})
}
