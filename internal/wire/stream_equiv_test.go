package wire

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"wsopt/internal/minidb"
)

// The streaming XML encoder promises byte-identical output to the
// doc-struct-plus-encoding/xml implementation it replaced. These tests
// keep that promise honest by re-implementing the old encoder and
// diffing the bytes across adversarial and randomized blocks.

// marshalXMLReference is the pre-streaming XML encoder: build the
// envelope, hand it to encoding/xml.
func marshalXMLReference(w io.Writer, schema minidb.Schema, rows []minidb.Row) error {
	env := xmlEnvelope{}
	env.Body.Rowset.Columns = make([]xmlColumn, len(schema))
	for i, c := range schema {
		env.Body.Rowset.Columns[i] = xmlColumn{Name: c.Name, Type: typeName(c.Type)}
	}
	env.Body.Rowset.Rows = make([]xmlRow, len(rows))
	for i, r := range rows {
		if len(r) != len(schema) {
			return fmt.Errorf("wire: row %d has %d values, schema has %d columns", i, len(r), len(schema))
		}
		vals := make([]xmlValue, len(r))
		for j, v := range r {
			vals[j] = xmlValue{Null: v.Null, Data: v.String()}
		}
		env.Body.Rowset.Rows[i] = xmlRow{V: vals}
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	return xml.NewEncoder(w).Encode(env)
}

// equivalenceBlocks are hand-picked blocks exercising every escaping
// corner: XML character references, control bytes,
// invalid UTF-8, U+2028/U+2029, empty strings vs NULLs, special floats,
// empty schemas and empty rowsets.
func equivalenceBlocks() []struct {
	name   string
	schema minidb.Schema
	rows   []minidb.Row
} {
	schema := minidb.Schema{
		{Name: "id", Type: minidb.Int64},
		{Name: "name", Type: minidb.String},
		{Name: "bal", Type: minidb.Float64},
		{Name: "day", Type: minidb.Date},
	}
	nasty := []string{
		"",
		"plain",
		`quote " backslash \ slash /`,
		"<tag attr='v'>&amp;</tag>",
		"tab\tnewline\ncarriage\r",
		"ctrl \x01\x02\x1f bytes",
		"invalid \x80\xfe utf8",
		"line sep   and para sep  ",
		"emoji \U0001F600 and high �",
		"null byte \x00 embedded",
	}
	var rows []minidb.Row
	for i, s := range nasty {
		rows = append(rows, minidb.Row{
			minidb.NewInt(int64(i - 5)),
			minidb.NewString(s),
			minidb.NewFloat(float64(i) * 1.5),
			minidb.NewDate(int64(i * 1000)),
		})
	}
	rows = append(rows,
		minidb.Row{minidb.Null(minidb.Int64), minidb.Null(minidb.String), minidb.Null(minidb.Float64), minidb.Null(minidb.Date)},
		minidb.Row{minidb.NewInt(math.MaxInt64), minidb.NewString(""), minidb.NewFloat(math.Inf(1)), minidb.NewDate(math.MinInt64)},
		minidb.Row{minidb.NewInt(math.MinInt64), minidb.NewString("x"), minidb.NewFloat(math.Inf(-1)), minidb.NewDate(0)},
		minidb.Row{minidb.NewInt(0), minidb.NewString("y"), minidb.NewFloat(math.NaN()), minidb.NewDate(-1)},
		minidb.Row{minidb.NewInt(7), minidb.NewString("z"), minidb.NewFloat(0.1), minidb.NewDate(12)},
	)
	weird := minidb.Schema{
		{Name: `col "with" <specials> & 'quotes'`, Type: minidb.String},
		{Name: "ctrl\x01\ttab", Type: minidb.Int64},
	}
	return []struct {
		name   string
		schema minidb.Schema
		rows   []minidb.Row
	}{
		{"nasty strings", schema, rows},
		{"empty rowset", schema, nil},
		{"empty schema", minidb.Schema{}, nil},
		{"weird column names", weird, []minidb.Row{
			{minidb.NewString("v"), minidb.NewInt(1)},
			{minidb.Null(minidb.String), minidb.Null(minidb.Int64)},
		}},
	}
}

func TestXMLStreamMatchesMarshal(t *testing.T) {
	for _, tc := range equivalenceBlocks() {
		t.Run(tc.name, func(t *testing.T) {
			var want, got bytes.Buffer
			if err := marshalXMLReference(&want, tc.schema, tc.rows); err != nil {
				t.Fatalf("reference encode: %v", err)
			}
			if err := (XML{}).Encode(&got, tc.schema, tc.rows); err != nil {
				t.Fatalf("streaming encode: %v", err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Fatalf("streaming XML differs from encoding/xml\nwant: %q\ngot:  %q", want.Bytes(), got.Bytes())
			}
		})
	}
}

// TestStreamMatchesMarshalRandom fuzzes the equivalence with random
// schemas and rows, including random byte strings (often invalid UTF-8).
func TestStreamMatchesMarshalRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 300; iter++ {
		schema, rows := randEquivBlock(rng)
		var wantX, gotX bytes.Buffer
		if err := marshalXMLReference(&wantX, schema, rows); err != nil {
			t.Fatalf("iter %d: xml reference: %v", iter, err)
		}
		if err := (XML{}).Encode(&gotX, schema, rows); err != nil {
			t.Fatalf("iter %d: xml streaming: %v", iter, err)
		}
		if !bytes.Equal(wantX.Bytes(), gotX.Bytes()) {
			t.Fatalf("iter %d: XML mismatch\nwant: %q\ngot:  %q", iter, wantX.Bytes(), gotX.Bytes())
		}
	}
}

// randEquivBlock draws a small random schema and block: every type,
// one cell in four NULL, strings from randEquivString.
func randEquivBlock(rng *rand.Rand) (minidb.Schema, []minidb.Row) {
	types := []minidb.Type{minidb.Int64, minidb.Float64, minidb.String, minidb.Date}
	ncols := 1 + rng.Intn(5)
	schema := make(minidb.Schema, ncols)
	for i := range schema {
		schema[i] = minidb.Column{Name: randEquivString(rng, 8), Type: types[rng.Intn(len(types))]}
	}
	nrows := rng.Intn(6)
	rows := make([]minidb.Row, nrows)
	for i := range rows {
		row := make(minidb.Row, ncols)
		for j := range row {
			if rng.Intn(4) == 0 {
				row[j] = minidb.Null(schema[j].Type)
				continue
			}
			switch schema[j].Type {
			case minidb.Int64:
				row[j] = minidb.NewInt(rng.Int63() - rng.Int63())
			case minidb.Float64:
				row[j] = minidb.NewFloat(rng.NormFloat64() * 1e6)
			case minidb.String:
				row[j] = minidb.NewString(randEquivString(rng, 20))
			case minidb.Date:
				row[j] = minidb.NewDate(int64(rng.Intn(40000) - 20000))
			}
		}
		rows[i] = row
	}
	return schema, rows
}

// randEquivString emits a mix of ASCII, multibyte runes and raw (often
// invalid) bytes.
func randEquivString(rng *rand.Rand, maxLen int) string {
	n := rng.Intn(maxLen + 1)
	var b []byte
	for len(b) < n {
		switch rng.Intn(5) {
		case 0:
			b = append(b, byte(rng.Intn(256))) // raw byte, may be invalid UTF-8
		case 1:
			b = append(b, byte(rng.Intn(0x20))) // control
		case 2:
			const specials = `<>&"'\/` + "  �\U0001F600"
			r := []rune(specials)[rng.Intn(11)]
			b = append(b, string(r)...)
		default:
			b = append(b, byte('a'+rng.Intn(26)))
		}
	}
	return string(b)
}
