package core

import (
	"encoding/json"
	"fmt"
	"sort"

	"lama/internal/cluster"
	"lama/internal/hw"
)

// placementDTO is the JSON wire form of one placement. Hardware object
// references are encoded as (level, logical) pairs resolved against a
// cluster on decode.
type placementDTO struct {
	Rank           int            `json:"rank"`
	Node           int            `json:"node"`
	NodeName       string         `json:"nodeName"`
	Coords         map[string]int `json:"coords,omitempty"`
	LeafLevel      string         `json:"leafLevel,omitempty"`
	LeafLogical    int            `json:"leafLogical,omitempty"`
	PUs            []int          `json:"pus"`
	Oversubscribed bool           `json:"oversubscribed,omitempty"`
}

type mapDTO struct {
	Layout     string         `json:"layout,omitempty"`
	Sweeps     int            `json:"sweeps"`
	Placements []placementDTO `json:"placements"`
}

// MarshalJSON encodes the map so it can be stored or shipped between the
// mapping and launching agents (paper §III separates those roles).
func (m *Map) MarshalJSON() ([]byte, error) {
	dto := mapDTO{Sweeps: m.Sweeps}
	if m.Layout.Len() > 0 {
		dto.Layout = m.Layout.String()
	}
	for i := range m.Placements {
		p := &m.Placements[i]
		pd := placementDTO{
			Rank: p.Rank, Node: p.Node, NodeName: p.NodeName,
			PUs: p.PUs, Oversubscribed: p.Oversubscribed,
		}
		cv := m.Coords(i)
		for _, l := range hw.Levels {
			if cv[l] >= 0 {
				if pd.Coords == nil {
					pd.Coords = map[string]int{}
				}
				pd.Coords[l.Abbrev()] = cv[l]
			}
		}
		if p.Leaf != nil {
			pd.LeafLevel = p.Leaf.Level.String()
			pd.LeafLogical = p.Leaf.Logical
		}
		dto.Placements = append(dto.Placements, pd)
	}
	return json.Marshal(dto)
}

// DecodeMap reconstructs a map from its JSON form against the cluster it
// was planned for, re-resolving leaf object references. Coordinates are
// not stored: each rank's must equal what Map.Coords derives from its
// node and leaf. The decoded map is validated.
func DecodeMap(data []byte, c *cluster.Cluster) (*Map, error) {
	var dto mapDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return nil, fmt.Errorf("core: decode map: %v", err)
	}
	m := &Map{Sweeps: dto.Sweeps}
	if dto.Layout != "" {
		layout, err := ParseLayout(dto.Layout)
		if err != nil {
			return nil, err
		}
		m.Layout = layout
	}
	for _, pd := range dto.Placements {
		node := c.Node(pd.Node)
		if node == nil {
			return nil, fmt.Errorf("core: decode map: rank %d on unknown node %d", pd.Rank, pd.Node)
		}
		p := Placement{
			Rank: pd.Rank, Node: pd.Node, NodeName: pd.NodeName,
			PUs: pd.PUs, Oversubscribed: pd.Oversubscribed,
		}
		coords := NoCoords()
		// Sorted keys, so which unknown abbreviation gets reported does
		// not depend on map iteration order.
		abbrevs := make([]string, 0, len(pd.Coords))
		for ab := range pd.Coords {
			abbrevs = append(abbrevs, ab)
		}
		sort.Strings(abbrevs)
		for _, ab := range abbrevs {
			l, ok := hw.LevelByAbbrev(ab)
			if !ok {
				return nil, fmt.Errorf("core: decode map: unknown level %q", ab)
			}
			coords[l] = pd.Coords[ab]
		}
		if pd.LeafLevel != "" {
			l, ok := hw.LevelByName(pd.LeafLevel)
			if !ok {
				return nil, fmt.Errorf("core: decode map: unknown leaf level %q", pd.LeafLevel)
			}
			p.Leaf = node.Topo.ObjectAt(l, pd.LeafLogical)
			if p.Leaf == nil {
				return nil, fmt.Errorf("core: decode map: rank %d leaf %s#%d missing on %s",
					pd.Rank, l, pd.LeafLogical, node.Name)
			}
		}
		m.Placements = append(m.Placements, p)
		if got := m.Coords(len(m.Placements) - 1); coords != got {
			return nil, fmt.Errorf("core: decode map: rank %d coords {%s}, but its node and leaf put it at {%s}",
				pd.Rank, coords, got)
		}
	}
	if err := m.Validate(c); err != nil {
		return nil, fmt.Errorf("core: decoded map invalid: %v", err)
	}
	return m, nil
}
