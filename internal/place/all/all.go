// Package all links every built-in placement policy into the place
// registry: importing it for side effects guarantees place.Names() lists
// the full strategy space ("lama" registers with the registry itself).
//
//	import _ "lama/internal/place/all"
//
// Jobs turns a policy list into the sweep jobs the CLIs compare.
package all

import (
	"context"
	"fmt"
	"strings"

	_ "lama/internal/baseline"
	"lama/internal/place"
	"lama/internal/rankfile"
	_ "lama/internal/torus"
	_ "lama/internal/treematch"
)

// Jobs selects registered policies for place.Sweep: list is a comma list
// of policy names, or "all" for every registered one in place.Names()
// order. Entries are trimmed and empty ones skipped. Every name is
// resolved before any policy runs, and an empty selection is an error.
// Each job runs with a copy of base; "rankfile" also gets base's by-slot
// placement as its rankfile text, so every policy runs from one list.
func Jobs(list string, base place.Request) ([]place.Job, error) {
	names := strings.Split(list, ",")
	if list == "all" {
		names = place.Names()
	}
	var jobs []place.Job
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		p, ok := place.Lookup(name)
		if !ok {
			// Place reports an unknown name before it reads the request.
			_, err := place.Place(context.Background(), name, nil)
			return nil, err
		}
		jobs = append(jobs, place.Job{Policy: p, Req: &base})
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("policy list %q selects no policies", list)
	}
	for i := range jobs {
		if jobs[i].Policy.Name() != "rankfile" {
			continue
		}
		slots, err := place.Place(context.Background(), "by-slot", &place.Request{Cluster: base.Cluster, NP: base.NP})
		if err != nil {
			return nil, err
		}
		f, err := rankfile.FromMap(slots)
		if err != nil {
			return nil, err
		}
		req := base
		req.RankfileText = rankfile.Format(f)
		jobs[i].Req = &req
	}
	return jobs, nil
}
