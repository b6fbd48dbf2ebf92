// Package appsim estimates the execution time of an iterative
// bulk-synchronous application under a given mapping: each iteration is a
// compute phase followed by a communication phase whose duration is the
// slowest of (a) the busiest rank's serialized message time and (b) the
// most congested network link (for link-modeling networks). This turns
// the static per-message costs of netsim into end-to-end iteration times
// and application-level speedups — the quantity the paper's motivating
// studies report.
package appsim

import (
	"fmt"

	"lama/internal/cluster"
	"lama/internal/commpat"
	"lama/internal/core"
	"lama/internal/netsim"
)

// Config describes the simulated application.
type Config struct {
	// ComputeUs is the per-iteration compute time of each rank, in µs.
	ComputeUs float64
	// Iterations is the number of BSP iterations to simulate.
	Iterations int
}

// Result is the simulated execution outcome.
type Result struct {
	// TotalUs is the end-to-end time of all iterations.
	TotalUs float64
	// IterUs is the time of one iteration (all iterations are identical).
	IterUs float64
	// CommUs is the communication-phase time of one iteration.
	CommUs float64
	// BoundBy names the dominant term: "compute", "rank-comm", or "link".
	BoundBy string
}

// Run simulates the application. The traffic matrix gives per-iteration
// exchanged bytes between ranks.
func Run(c *cluster.Cluster, m *core.Map, model *netsim.Model,
	tm *commpat.Matrix, cfg Config) (*Result, error) {
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("appsim: non-positive iteration count %d", cfg.Iterations)
	}
	if cfg.ComputeUs < 0 {
		return nil, fmt.Errorf("appsim: negative compute time")
	}
	rep, err := model.Evaluate(c, m, tm)
	if err != nil {
		return nil, err
	}
	// The busiest rank serializes its sends and receives; on networks that
	// model links (torus) the most loaded link can bound the phase instead.
	comm, bound := rep.MaxRankTime, "rank-comm"
	if t3, ok := model.Net.(*netsim.Torus3D); ok && t3.BW > 0 {
		if linkTime := rep.MaxLinkLoad / t3.BW; linkTime > comm {
			comm, bound = linkTime, "link"
		}
	}
	if cfg.ComputeUs > comm {
		bound = "compute"
	}
	iter := cfg.ComputeUs + comm
	return &Result{
		TotalUs: iter * float64(cfg.Iterations),
		IterUs:  iter,
		CommUs:  comm,
		BoundBy: bound,
	}, nil
}

// Speedup returns how much faster b is than a (a.TotalUs / b.TotalUs).
func Speedup(a, b *Result) float64 {
	if b.TotalUs == 0 {
		return 0
	}
	return a.TotalUs / b.TotalUs
}
