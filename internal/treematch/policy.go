package treematch

import (
	"context"
	"fmt"

	"lama/internal/core"
	"lama/internal/place"
)

// policy adapts the TreeMatch-style mapper to the place registry. It
// consumes Request.Traffic; the matrix must cover exactly NP ranks.
type policy struct{}

func (policy) Name() string { return "treematch" }

// TrafficAware marks that Place reads Request.Traffic.
func (policy) TrafficAware() {}

func (policy) Place(_ context.Context, req *place.Request) (*core.Map, error) {
	if req.Traffic == nil {
		return nil, fmt.Errorf("treematch: policy requires a traffic matrix")
	}
	return Map(req.Cluster, req.Traffic, req.NP)
}

func init() { place.Register(policy{}) }
