package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// RunReportSchema is the schema tag of the machine-readable run report.
const RunReportSchema = "runreport/v1"

// TimelineEntry is one step of a run's recovery timeline. No tool writes
// one today; the schema is append-only, so reports that carry one keep
// parsing and validating (testdata/runreport_v1_recovery.json).
type TimelineEntry struct {
	// Step is the step the action was taken at (detection step).
	Step int `json:"step"`
	// Action is what happened: "detect", "realloc", "remap", "respawn",
	// "shrink", "abort", "teardown", ...
	Action string `json:"action"`
	// Detail carries action-specific values (ranks, nodes, costs).
	Detail map[string]any `json:"detail,omitempty"`
}

// SeriesPoint is one sample of a step-indexed curve (recovered locality,
// migration cost, world size, ...) a long-horizon run records.
type SeriesPoint struct {
	// Step is the virtual step the sample was taken at.
	Step int `json:"step"`
	// Value is the sampled quantity.
	Value float64 `json:"value"`
}

// RunReport is the single machine-readable document a CLI run emits via
// -metrics-out: the run configuration, the per-phase wall-time spans, the
// metrics registry snapshot, and (in reports from the retired
// fault-tolerance runs) the recovery timeline. The schema is append-only:
// fields are added, never renamed or removed.
type RunReport struct {
	// Schema is always RunReportSchema.
	Schema string `json:"schema"`
	// Tool is the emitting command ("lamasim", "lamamap", "lamabench",
	// "topogen").
	Tool string `json:"tool"`
	// Config records the run's effective configuration (flag values).
	Config map[string]any `json:"config,omitempty"`
	// Phases lists the completed phase spans in completion order.
	Phases []SpanRecord `json:"phases,omitempty"`
	// PhaseTotalsUs aggregates Phases by name.
	PhaseTotalsUs map[string]float64 `json:"phaseTotalsUs,omitempty"`
	// Metrics is the registry snapshot.
	Metrics *MetricsSnapshot `json:"metrics,omitempty"`
	// Recovery is a supervised run's recovery timeline, in step order.
	Recovery []TimelineEntry `json:"recovery,omitempty"`
	// Series holds step-indexed curves by name (e.g. the retired churn
	// scenario's "recovered_locality" and "migration_cost"), each in step
	// order.
	Series map[string][]SeriesPoint `json:"series,omitempty"`
}

// Report assembles a run report from the observer's timer and registry
// (both sections are omitted when disabled). Callers fill extra Config
// entries before writing.
func (o *Observer) Report(tool string, config map[string]any) *RunReport {
	rep := &RunReport{Schema: RunReportSchema, Tool: tool, Config: config}
	if o != nil {
		rep.Phases = o.Phases.Spans()
		rep.PhaseTotalsUs = o.Phases.Totals()
		rep.Metrics = o.Metrics.Snapshot()
	}
	return rep
}

// WriteFile writes the report as indented JSON ("-" writes to stdout).
func (r *RunReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("obs: write run report: %v", err)
	}
	return nil
}

// ValidateRunReport parses and structurally checks a runreport/v1
// document: schema tag, tool name, non-negative span durations, and
// internally consistent histogram snapshots (cumulative bucket counts
// ending at the total count). It returns the parsed report.
func ValidateRunReport(data []byte) (*RunReport, error) {
	var rep RunReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("obs: run report does not parse: %v", err)
	}
	if rep.Schema != RunReportSchema {
		return nil, fmt.Errorf("obs: run report schema %q, want %q", rep.Schema, RunReportSchema)
	}
	if rep.Tool == "" {
		return nil, fmt.Errorf("obs: run report has no tool")
	}
	for _, s := range rep.Phases {
		if s.Name == "" || s.DurUs < 0 || s.StartUs < 0 {
			return nil, fmt.Errorf("obs: bad phase span %+v", s)
		}
	}
	if m := rep.Metrics; m != nil {
		for name, h := range m.Histograms {
			prev := int64(0)
			for _, b := range h.Buckets {
				if b.Count < prev {
					return nil, fmt.Errorf("obs: histogram %s buckets not cumulative", name)
				}
				prev = b.Count
			}
			if n := len(h.Buckets); n > 0 && h.Buckets[n-1].Count != h.Count {
				return nil, fmt.Errorf("obs: histogram %s +Inf bucket %d != count %d",
					name, h.Buckets[n-1].Count, h.Count)
			}
		}
	}
	for _, e := range rep.Recovery {
		if e.Action == "" {
			return nil, fmt.Errorf("obs: recovery entry with no action at step %d", e.Step)
		}
	}
	for name, pts := range rep.Series {
		if name == "" {
			return nil, fmt.Errorf("obs: series with empty name")
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Step < pts[i-1].Step {
				return nil, fmt.Errorf("obs: series %s not in step order at index %d", name, i)
			}
		}
	}
	return &rep, nil
}

// ValidateJSONLTrace checks that every line of a JSONL event trace parses
// as a flat JSON object carrying the reserved "src" and "event" string
// keys. It returns the number of events and the per-source event counts.
func ValidateJSONLTrace(r io.Reader) (int, map[string]int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	n := 0
	bySource := map[string]int{}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var raw map[string]any
		if err := json.Unmarshal(line, &raw); err != nil {
			return n, bySource, fmt.Errorf("obs: trace line %d does not parse: %v", n+1, err)
		}
		src, ok := raw["src"].(string)
		if !ok || src == "" {
			return n, bySource, fmt.Errorf("obs: trace line %d has no src", n+1)
		}
		if name, ok := raw["event"].(string); !ok || name == "" {
			return n, bySource, fmt.Errorf("obs: trace line %d has no event", n+1)
		}
		bySource[src]++
		n++
	}
	if err := sc.Err(); err != nil {
		return n, bySource, err
	}
	return n, bySource, nil
}
