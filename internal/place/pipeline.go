package place

import (
	"context"
	"fmt"
	"time"

	"lama/internal/core"
	"lama/internal/obs"
)

// Stage is a composable post-pass applied to an already-placed map while
// the processors stay fixed — netorder's node ordering (netorder.Stage)
// and rank-swap refinement (netorder.Refine) are the canonical ones.
// Stages run between the place and bind steps of a pipeline, each under
// its own phase span.
type Stage interface {
	// StageName labels the stage's phase span and events.
	StageName() string
	// Apply transforms the map. It must return a map with the same rank
	// count; it may return its argument unchanged. The context cancels
	// long-running refinement at iteration boundaries.
	Apply(ctx context.Context, req *Request, m *core.Map) (*core.Map, error)
}

// Pipeline is the uniform strategy execution path: resolve policy → place
// → post-pass stages. Binding and launching attach downstream (see
// mpirun.Execute and orte.Runtime.Launch); they are not stages because
// their outputs are not maps.
type Pipeline struct {
	// Policy produces the initial placement.
	Policy Policy
	// Stages are applied in order to the placed map.
	Stages []Stage
}

// Run places and then applies every stage, instrumenting each: the place
// step follows Run's uniform contract, and every stage gets a phase span
// named after it plus a "pipeline"/"stage" completion event.
func (pl *Pipeline) Run(ctx context.Context, req *Request) (*core.Map, error) {
	if pl.Policy == nil {
		return nil, fmt.Errorf("place: pipeline without a policy")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	m, err := Run(ctx, pl.Policy, req)
	if err != nil {
		return nil, err
	}
	o := req.Opts.Obs
	for _, st := range pl.Stages {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("place: pipeline canceled before stage %s: %w", st.StageName(), err)
		}
		var t0 time.Time
		if o != nil {
			t0 = time.Now() //lama:nondet-ok latency observability only, never reaches mapping output
		}
		end := o.StartSpan(st.StageName())
		next, err := st.Apply(ctx, req, m)
		end()
		if err != nil {
			return nil, fmt.Errorf("place: stage %s: %w", st.StageName(), err)
		}
		if next.NumRanks() != m.NumRanks() {
			return nil, fmt.Errorf("place: stage %s changed rank count %d -> %d",
				st.StageName(), m.NumRanks(), next.NumRanks())
		}
		if o.Enabled() {
			o.Emit(obs.SrcPipeline, obs.EvStage,
				obs.F("stage", st.StageName()),
				obs.F("policy", pl.Policy.Name()),
				obs.F("ranks", next.NumRanks()),
				obs.F("us", float64(time.Since(t0))/float64(time.Microsecond))) //lama:nondet-ok latency observability only, never reaches mapping output
		}
		m = next
	}
	return m, nil
}
