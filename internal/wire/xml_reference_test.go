package wire

import (
	"encoding/xml"
	"fmt"
	"io"

	"wsopt/internal/minidb"
)

// The envelope structs and the reflective decoder the XML codec used
// until the arena parser replaced it. They live on here as the
// reference: marshalXMLReference pins the encoder's bytes, and
// decodeXMLReference is the oracle the new decoder is fuzzed against —
// whatever it accepts, encoding/xml must accept with the same block.

type xmlValue struct {
	Null bool   `xml:"null,attr,omitempty"`
	Data string `xml:",chardata"`
}

type xmlRow struct {
	V []xmlValue `xml:"v"`
}

type xmlColumn struct {
	Name string `xml:"name,attr"`
	Type string `xml:"type,attr"`
}

type xmlRowset struct {
	XMLName xml.Name    `xml:"rowset"`
	Columns []xmlColumn `xml:"metadata>column"`
	Rows    []xmlRow    `xml:"rows>row"`
}

type xmlBody struct {
	Rowset xmlRowset `xml:"rowset"`
}

type xmlEnvelope struct {
	XMLName xml.Name `xml:"Envelope"`
	Body    xmlBody  `xml:"Body"`
}

// decodeXMLReference is XML.Decode as it was before the arena parser.
func decodeXMLReference(r io.Reader) (minidb.Schema, []minidb.Row, error) {
	var env xmlEnvelope
	if err := xml.NewDecoder(r).Decode(&env); err != nil {
		return nil, nil, fmt.Errorf("wire: xml decode: %w", err)
	}
	rs := env.Body.Rowset
	schema := make(minidb.Schema, len(rs.Columns))
	for i, c := range rs.Columns {
		t, err := parseTypeName(c.Type)
		if err != nil {
			return nil, nil, err
		}
		schema[i] = minidb.Column{Name: c.Name, Type: t}
	}
	rows := make([]minidb.Row, len(rs.Rows))
	for i, xr := range rs.Rows {
		if len(xr.V) != len(schema) {
			return nil, nil, fmt.Errorf("wire: row %d has %d values, schema has %d columns", i, len(xr.V), len(schema))
		}
		row := make(minidb.Row, len(xr.V))
		for j, xv := range xr.V {
			if xv.Null {
				row[j] = minidb.Null(schema[j].Type)
				continue
			}
			if schema[j].Type == minidb.String {
				// Bypass ParseValue, which maps "" to NULL: an empty
				// string value is distinct from a NULL here.
				row[j] = minidb.NewString(xv.Data)
				continue
			}
			v, err := minidb.ParseValue(schema[j].Type, xv.Data)
			if err != nil {
				return nil, nil, fmt.Errorf("wire: row %d column %d: %w", i, j, err)
			}
			row[j] = v
		}
		rows[i] = row
	}
	return schema, rows, nil
}
