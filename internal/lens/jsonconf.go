package lens

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"configvalidator/internal/configtree"
)

// JSON parses JSON configuration files (e.g. Docker's daemon.json) into a
// tree. Objects become sections with one child per key (sorted for
// determinism), arrays become repeated children labelled with the parent
// key, and scalars become leaf values.
type JSON struct {
	name string
}

var _ Lens = (*JSON)(nil)

// NewJSON returns a JSON lens registered under the given name.
func NewJSON(name string) *JSON { return &JSON{name: name} }

// Name implements Lens.
func (l *JSON) Name() string { return l.name }

// Parse implements Lens.
func (l *JSON) Parse(path string, content []byte) (*Result, error) {
	var v any
	dec := json.NewDecoder(bytes.NewReader(content))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		return nil, parseErrorf(l.name, path, 0, "json: %v", err)
	}
	root := configtree.New(path)
	root.File = path
	if err := jsonToTree(root, "", v); err != nil {
		return nil, parseErrorf(l.name, path, 0, "%v", err)
	}
	return &Result{Kind: KindTree, Tree: root}, nil
}

func jsonToTree(parent *configtree.Node, label string, v any) error {
	switch val := v.(type) {
	case map[string]any:
		target := parent
		if label != "" {
			target = parent.Section(label)
		}
		keys := make([]string, 0, len(val))
		for k := range val {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := jsonToTree(target, k, val[k]); err != nil {
				return err
			}
		}
	case []any:
		if label == "" {
			label = "item"
		}
		for _, item := range val {
			if err := jsonToTree(parent, label, item); err != nil {
				return err
			}
		}
		if len(val) == 0 {
			parent.Section(label)
		}
	case string:
		parent.Add(label, val)
	case json.Number:
		parent.Add(label, val.String())
	case bool:
		parent.Add(label, strconv.FormatBool(val))
	case nil:
		parent.Add(label, "")
	default:
		return fmt.Errorf("unsupported JSON value type %T", v)
	}
	return nil
}
