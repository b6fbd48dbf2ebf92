package torus

import (
	"context"
	"lama/internal/core"
	"lama/internal/place"
)

// policy adapts the BlueGene-style XYZT mapper to the place registry. It
// consumes Request.TorusDims (all-zero derives a near-cubic shape from the
// node count via FitDims) and Request.TorusOrder (empty means "xyzt").
type policy struct{}

func (policy) Name() string { return "torus" }

// PrefixClosed marks that the torus walk stops at np; the shape derives
// from the node count alone.
func (policy) PrefixClosed() {}

func (policy) Place(_ context.Context, req *place.Request) (*core.Map, error) {
	d := Dims{X: req.TorusDims[0], Y: req.TorusDims[1], Z: req.TorusDims[2]}
	if d == (Dims{}) {
		d = FitDims(req.Cluster.NumNodes())
	}
	order := req.TorusOrder
	if order == "" {
		order = "xyzt"
	}
	return Map(req.Cluster, d, order, req.NP)
}

func init() { place.Register(policy{}) }

// FitDims factors n nodes into a torus shape with X >= Y >= Z, as close to
// cubic as the divisors of n allow (FitDims(12) = 3x2x2, FitDims(7) =
// 7x1x1). The product is always exactly n, so any cluster can be treated
// as a (possibly degenerate) torus.
func FitDims(n int) Dims {
	if n < 1 {
		return Dims{X: 1, Y: 1, Z: 1}
	}
	best := Dims{X: n, Y: 1, Z: 1}
	for z := 1; z*z*z <= n; z++ {
		if n%z != 0 {
			continue
		}
		m := n / z
		for y := z; y*y <= m; y++ {
			if m%y != 0 {
				continue
			}
			// Deeper (larger Z, then larger Y) factorizations are closer
			// to cubic; the loops visit them in increasing z, y order.
			best = Dims{X: m / y, Y: y, Z: z}
		}
	}
	return best
}
