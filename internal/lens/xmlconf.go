package lens

import (
	"bytes"
	"encoding/xml"

	"configvalidator/internal/configtree"
)

// HadoopXML parses Hadoop-style configuration XML:
//
//	<configuration>
//	  <property>
//	    <name>dfs.permissions.enabled</name>
//	    <value>true</value>
//	    <final>true</final>
//	  </property>
//	</configuration>
//
// Each property becomes a node labelled with the property name; the node's
// value is the property value, and a "final" child records finality when
// present.
type HadoopXML struct{}

var _ Lens = (*HadoopXML)(nil)

// NewHadoopXML returns the Hadoop XML lens.
func NewHadoopXML() *HadoopXML { return &HadoopXML{} }

// Name implements Lens.
func (l *HadoopXML) Name() string { return "hadoop" }

type hadoopConfiguration struct {
	XMLName    xml.Name         `xml:"configuration"`
	Properties []hadoopProperty `xml:"property"`
}

type hadoopProperty struct {
	Name  string `xml:"name"`
	Value string `xml:"value"`
	Final string `xml:"final"`
}

// Parse implements Lens.
func (l *HadoopXML) Parse(path string, content []byte) (*Result, error) {
	var cfg hadoopConfiguration
	dec := xml.NewDecoder(bytes.NewReader(content))
	if err := dec.Decode(&cfg); err != nil {
		return nil, parseErrorf("hadoop", path, 0, "xml: %v", err)
	}
	root := configtree.New(path)
	root.File = path
	for _, p := range cfg.Properties {
		if p.Name == "" {
			return nil, parseErrorf("hadoop", path, 0, "property without <name>")
		}
		node := root.Add(p.Name, p.Value)
		if p.Final != "" {
			node.Add("final", p.Final)
		}
	}
	return &Result{Kind: KindTree, Tree: root}, nil
}
