package core

import (
	"context"
	"fmt"
	"strings"

	"lama/internal/hw"
	"lama/internal/obs"
)

// TraceAction classifies what the mapping iteration did at one coordinate.
type TraceAction int

const (
	// Mapped: a rank was placed at the coordinate.
	Mapped TraceAction = iota
	// SkipNonexistent: the coordinate does not exist on the node (maximal
	// tree wider than the node's actual topology).
	SkipNonexistent
	// SkipUnavailable: the resource exists but is off-lined/disallowed.
	SkipUnavailable
	// SkipOversub: placing would oversubscribe and that is disallowed.
	SkipOversub
	// SkipCapped: an ALPS-style per-resource cap or the node slot cap was
	// reached.
	SkipCapped
)

// String names the action.
func (a TraceAction) String() string {
	switch a {
	case Mapped:
		return "mapped"
	case SkipNonexistent:
		return "skip-nonexistent"
	case SkipUnavailable:
		return "skip-unavailable"
	case SkipOversub:
		return "skip-oversubscribe"
	case SkipCapped:
		return "skip-capped"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// TraceEvent is one coordinate visit during mapping.
type TraceEvent struct {
	// Coords is the visited iteration coordinate per layout level, -1 for
	// levels absent from the layout. (A CoordVector, not a map: enabling
	// tracing must not reintroduce a per-coordinate map allocation into
	// the visited-coordinate path.)
	Coords CoordVector
	// Action says what happened there.
	Action TraceAction
	// Rank is the placed rank for Mapped events, -1 otherwise.
	Rank int
	// Sweep is the 0-based resource-space sweep number.
	Sweep int
}

// String renders the event like "sweep 0 s=1 c=0 n=0 h=0 -> mapped rank 1".
func (e TraceEvent) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sweep %d ", e.Sweep)
	for _, l := range hw.Levels {
		if e.Coords[l] >= 0 {
			fmt.Fprintf(&sb, "%s=%d ", l.Abbrev(), e.Coords[l])
		}
	}
	fmt.Fprintf(&sb, "-> %s", e.Action)
	if e.Action == Mapped {
		fmt.Fprintf(&sb, " rank %d", e.Rank)
	}
	return sb.String()
}

// MapTraced is Map with an iteration trace: it records what happened at
// every visited coordinate (up to maxEvents; 0 means unlimited), which
// makes layout behaviour on heterogeneous or restricted systems
// inspectable ("why did rank 7 land there?"). With an Observer in the
// options every visit additionally streams to the event sink as a
// "map"/"visit" event — the sink is NOT bounded by maxEvents, which only
// caps the returned slice.
func (m *Mapper) MapTraced(np, maxEvents int) (*Map, []TraceEvent, error) {
	return m.MapTracedContext(context.Background(), np, maxEvents)
}

// MapTracedContext is MapTraced with cooperative cancellation, checked at
// sweep boundaries exactly like Mapper.MapContext.
func (m *Mapper) MapTracedContext(ctx context.Context, np, maxEvents int) (*Map, []TraceEvent, error) {
	o := m.Opts.Obs
	emitVisits := o.Enabled()
	var events []TraceEvent
	out, err := m.run(ctx, np, func(r *runState, action TraceAction, rank int) {
		coords := NoCoords()
		for i, l := range r.iterLevels {
			coords[l] = r.coords[i]
		}
		if emitVisits {
			o.Emit(obs.SrcMap, obs.EvVisit,
				obs.F("sweep", r.sweeps),
				obs.F("coords", coords.String()),
				obs.F("action", action.String()),
				obs.F("rank", rank))
		}
		if maxEvents > 0 && len(events) >= maxEvents {
			return
		}
		events = append(events, TraceEvent{
			Coords: coords, Action: action, Rank: rank, Sweep: r.sweeps,
		})
	})
	return out, events, err
}
