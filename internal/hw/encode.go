package hw

import (
	"encoding/json"
	"fmt"
)

// objectDTO is the JSON wire form of an Object subtree.
type objectDTO struct {
	Level     string      `json:"level"`
	OS        int         `json:"os,omitempty"`
	Available *bool       `json:"available,omitempty"` // omitted == true
	Children  []objectDTO `json:"children,omitempty"`
}

func toDTO(o *Object) objectDTO {
	d := objectDTO{Level: o.Level.String(), OS: o.OS}
	if !o.Available {
		f := false
		d.Available = &f
	}
	for _, c := range o.Children {
		d.Children = append(d.Children, toDTO(c))
	}
	return d
}

// fromDTO rebuilds one object subtree from its decoded form.
//
//lama:mutator
func fromDTO(d objectDTO, parent *Object) (*Object, error) {
	level, ok := LevelByName(d.Level)
	if !ok {
		return nil, fmt.Errorf("hw: unknown level %q", d.Level)
	}
	if parent != nil && level <= parent.Level {
		return nil, fmt.Errorf("hw: level %s cannot be a child of %s", level, parent.Level)
	}
	o := &Object{Level: level, OS: d.OS, Parent: parent, Available: true}
	if level != LevelPU {
		o.OS = -1
	}
	if d.Available != nil {
		o.Available = *d.Available
	}
	if level == LevelPU && len(d.Children) > 0 {
		return nil, fmt.Errorf("hw: PU objects cannot have children")
	}
	for _, cd := range d.Children {
		c, err := fromDTO(cd, o)
		if err != nil {
			return nil, err
		}
		o.Children = append(o.Children, c)
	}
	return o, nil
}

// MarshalJSON encodes the topology as a nested object tree. Levels missing
// in the wire form are not reconstructed: round-tripping preserves exactly
// the tree given, including irregular shapes and availability flags.
func (t *Topology) MarshalJSON() ([]byte, error) {
	return json.Marshal(toDTO(t.Root))
}

// UnmarshalJSON decodes a topology from the MarshalJSON form. The root
// object must be a machine, and every PU needs its own OS index in
// [0, MaxSpecPUs); a tree that breaks either, or whose path code would
// need more than 64 bits (see Hierarchy), is an error and leaves t as it
// was. Note: unlike Spec-built trees, decoded trees
// may omit levels entirely; all hw queries handle that, but such trees
// should be normalized with a Spec when a full 9-level tree is required.
//
//lama:mutator
func (t *Topology) UnmarshalJSON(data []byte) error {
	t.mustMutate("UnmarshalJSON")
	var d objectDTO
	if err := json.Unmarshal(data, &d); err != nil {
		return err
	}
	root, err := fromDTO(d, nil)
	if err != nil {
		return err
	}
	if root.Level != LevelMachine {
		return fmt.Errorf("hw: topology root must be a machine, got %s", root.Level)
	}
	return t.reindex(root)
}
