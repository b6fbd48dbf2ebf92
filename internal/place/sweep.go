package place

import (
	"context"
	"time"

	"lama/internal/core"
	"lama/internal/obs"
	"lama/internal/parallel"
)

// Job is one unit of a cross-policy sweep: a policy, the post-pass stages
// applied to its map, and the request to run both with. Distinct jobs may
// share a request (policies and stages only read it).
type Job struct {
	Policy Policy
	Stages []Stage
	Req    *Request
}

// Sweep runs every job across a bounded worker pool (workers <= 0 means
// GOMAXPROCS), each as Pipeline{Policy, Stages}.Run. The returned maps are
// in job order regardless of completion order; the first error (by lowest
// job index) aborts the sweep. The context cancels it at job boundaries:
// queued jobs are skipped and the context's error is returned.
//
// Each pool worker keeps one core.Mapper and sets it as Request.Mapper on
// every job it runs, so a layout sweep of "lama" jobs over one cluster
// rebuilds only the per-layout iteration state, not the dense tree. The
// caller's own Request.Mapper is ignored.
//
// The sweep-level observer is taken from the first job carrying one; the
// per-job requests run with their event sink stripped (metrics and spans
// still flow) so per-map "map/done" events give way to the sweep's own
// "sweep"/"job" progress events. Collecting every map costs memory
// proportional to the jobs' total rank count; for very large sweeps (all
// 9! full layouts) use SweepEach and reduce on the fly.
func Sweep(ctx context.Context, jobs []Job, workers int) ([]*core.Map, error) {
	out := make([]*core.Map, len(jobs))
	err := SweepEach(ctx, jobs, workers, func(i int, m *core.Map) error {
		out[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SweepEach is the streaming form of Sweep: visit(i, m) is invoked exactly
// once per successfully placed job, from the pool's worker goroutines, so
// visit MUST be safe for concurrent use. A visit error counts as that
// job's failure; the first error (by lowest job index) aborts the sweep.
func SweepEach(ctx context.Context, jobs []Job, workers int, visit func(i int, m *core.Map) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var o *obs.Observer
	for _, j := range jobs {
		if j.Req != nil && j.Req.Opts.Obs != nil {
			o = j.Req.Opts.Obs
			break
		}
	}
	var t0 time.Time
	if o != nil {
		t0 = time.Now() //lama:nondet-ok latency observability only, never reaches mapping output
	}
	workers = parallel.Workers(len(jobs), workers)
	if o.Enabled() {
		o.Emit(obs.SrcSweep, obs.EvStart,
			obs.F("jobs", len(jobs)), obs.F("workers", workers))
	}
	mappers := make([]core.Mapper, workers)
	err := parallel.ForEachWorker(len(jobs), workers, func(w, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		job := jobs[i]
		req := *job.Req
		req.Mapper = &mappers[w]
		if jo := req.Opts.Obs; jo.Enabled() {
			// Strip the sink so per-map events don't drown the trace;
			// metrics and spans still flow.
			stripped := *jo
			stripped.Sink = nil
			req.Opts.Obs = &stripped
		}
		var jobStart time.Time
		if o.Enabled() {
			jobStart = time.Now() //lama:nondet-ok latency observability only, never reaches mapping output
		}
		m, err := (&Pipeline{Policy: job.Policy, Stages: job.Stages}).Run(ctx, &req)
		if err != nil {
			if o.Enabled() {
				o.Emit(obs.SrcSweep, obs.EvJobFailed,
					obs.F("index", i), obs.F("policy", job.Policy.Name()),
					obs.F("error", err.Error()))
			}
			return err
		}
		if o.Enabled() {
			o.Emit(obs.SrcSweep, obs.EvJob,
				obs.F("index", i), obs.F("policy", job.Policy.Name()),
				obs.F("placed", len(m.Placements)), obs.F("sweeps", m.Sweeps),
				obs.F("us", float64(time.Since(jobStart))/float64(time.Microsecond))) //lama:nondet-ok latency observability only, never reaches mapping output
		}
		o.Reg().Counter("lama_sweep_jobs_total").Inc()
		return visit(i, m)
	})
	if o != nil {
		us := float64(time.Since(t0)) / float64(time.Microsecond) //lama:nondet-ok latency observability only, never reaches mapping output
		o.Reg().Histogram("lama_sweep_duration_us", obs.LatencyBucketsUs).Observe(us)
		if o.Enabled() {
			fields := []obs.Field{obs.F("jobs", len(jobs)), obs.F("us", us)}
			if err != nil {
				fields = append(fields, obs.F("error", err.Error()))
			}
			o.Emit(obs.SrcSweep, obs.EvDone, fields...)
		}
	}
	return err
}
