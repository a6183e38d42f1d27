package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"

	"wsopt/internal/minidb"
)

// JSON is the modern-web-service codec: a rowset as a JSON document. It
// sits between the XML codec (heaviest) and the binary codec (lightest)
// in both size and parse cost, rounding out the transport ablation.
//
// Layout:
//
//	{"columns":[{"name":"k","type":"INT64"},...],
//	 "rows":[["1","alice"],[null,"bob"],...]}
//
// Values travel as strings (NULL as JSON null) so that Int64 precision
// survives; type information lives in the column header.
//
// Encode streams the document — rows are written as they are visited,
// numbers rendered with strconv.Append* into a per-encode scratch, no
// intermediate document or per-cell string is materialized. The bytes
// produced are identical to what encoding/json emitted for the old
// document structs (TestJSONStreamMatchesMarshal pins this).
type JSON struct{}

// Name implements Codec.
func (JSON) Name() string { return "json" }

// ContentType implements Codec.
func (JSON) ContentType() string { return "application/json" }

type jsonColumn struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

type jsonRowset struct {
	Columns []jsonColumn `json:"columns"`
	Rows    [][]*string  `json:"rows"`
}

// Encode implements Codec, streaming rows as they are visited.
func (JSON) Encode(w io.Writer, schema minidb.Schema, rows []minidb.Row) error {
	e := newEncodeBuf(w)
	defer e.release()
	var scratch [40]byte
	e.str(`{"columns":[`)
	for i, c := range schema {
		if i > 0 {
			e.byte(',')
		}
		e.str(`{"name":`)
		jsonEscape(e, c.Name)
		e.str(`,"type":"`)
		e.str(typeName(c.Type))
		e.str(`"}`)
	}
	e.str(`],"rows":[`)
	for i, r := range rows {
		if len(r) != len(schema) {
			e.finish()
			return fmt.Errorf("wire: row %d has %d values, schema has %d columns", i, len(r), len(schema))
		}
		if i > 0 {
			e.byte(',')
		}
		e.byte('[')
		for j, v := range r {
			if j > 0 {
				e.byte(',')
			}
			if v.Null {
				e.str("null")
				continue
			}
			switch v.Kind {
			case minidb.Int64, minidb.Date:
				e.byte('"')
				e.raw(strconv.AppendInt(scratch[:0], v.I, 10))
				e.byte('"')
			case minidb.Float64:
				e.byte('"')
				e.raw(strconv.AppendFloat(scratch[:0], v.F, 'f', -1, 64))
				e.byte('"')
			default:
				jsonEscape(e, v.String())
			}
		}
		e.byte(']')
		e.maybeFlush()
	}
	e.str("]}\n")
	return e.finish()
}

const hexDigits = "0123456789abcdef"

// jsonEscape appends s as a JSON string, matching encoding/json's
// default (HTML-escaping) encoder byte for byte: `"` `\` and control
// characters escaped (with \b, \f, \n, \r, \t mnemonics), `<` `>` `&` as
// \u00XX, invalid UTF-8 as �, and U+2028/U+2029 escaped.
func jsonEscape(e *encodeBuf, s string) {
	e.byte('"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			e.str(s[start:i])
			switch b {
			case '\\', '"':
				e.byte('\\')
				e.byte(b)
			case '\b':
				e.str(`\b`)
			case '\f':
				e.str(`\f`)
			case '\n':
				e.str(`\n`)
			case '\r':
				e.str(`\r`)
			case '\t':
				e.str(`\t`)
			default:
				e.str(`\u00`)
				e.byte(hexDigits[b>>4])
				e.byte(hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			e.str(s[start:i])
			e.str("\\ufffd")
			i += size
			start = i
			continue
		}
		if c == ' ' || c == ' ' {
			e.str(s[start:i])
			e.str(`\u202`)
			e.byte(hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	e.str(s[start:])
	e.byte('"')
}

// DecodeScratch implements ScratchDecoder for the scratch's MaxCells
// alone; the rows own fresh memory either way. encoding/json materialises
// the whole document before a row can be looked at, so under a limit the
// body is buffered and the limit checked on its bytes first: a row is an
// element of an outermost array (as a column is), a cell an element of an
// array inside one. c columns and r rows are at most c·r+1 outer elements.
func (j JSON) DecodeScratch(r io.Reader, s *Scratch) (minidb.Schema, []minidb.Row, error) {
	if s == nil || s.MaxCells <= 0 {
		return j.Decode(r)
	}
	raw, err := readAllReuse(r, s.raw[:0])
	s.raw = raw
	if err != nil {
		return nil, nil, fmt.Errorf("wire: json decode: %w", err)
	}
	outer, inner, ok := jsonArrayElems(raw)
	if !ok {
		return nil, nil, fmt.Errorf("wire: json decode: nested deeper than a rowset")
	}
	if inner > s.MaxCells || outer > s.MaxCells+1 {
		return nil, nil, fmt.Errorf("wire: json decode: %w", ErrTooManyCells)
	}
	return j.Decode(bytes.NewReader(raw))
}

// Decode implements Codec.
func (JSON) Decode(r io.Reader) (minidb.Schema, []minidb.Row, error) {
	var doc jsonRowset
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, nil, fmt.Errorf("wire: json decode: %w", err)
	}
	// The decoder reads ahead, so what follows the document may already
	// sit in its buffer: only it can tell trailing data from a clean end
	// (and, under gzip, it is this read to EOF that checks the trailer).
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("a second value follows the document")
		}
		return nil, nil, fmt.Errorf("wire: json decode: trailing data: %w", err)
	}
	if len(doc.Columns) == 0 {
		return nil, nil, fmt.Errorf("wire: json document has no columns")
	}
	schema := make(minidb.Schema, len(doc.Columns))
	for i, c := range doc.Columns {
		t, err := parseTypeName(c.Type)
		if err != nil {
			return nil, nil, err
		}
		schema[i] = minidb.Column{Name: c.Name, Type: t}
	}
	rows := make([]minidb.Row, len(doc.Rows))
	for i, cells := range doc.Rows {
		if len(cells) != len(schema) {
			return nil, nil, fmt.Errorf("wire: row %d has %d values, schema has %d columns", i, len(cells), len(schema))
		}
		row := make(minidb.Row, len(cells))
		for j, cell := range cells {
			if cell == nil {
				row[j] = minidb.Null(schema[j].Type)
				continue
			}
			if schema[j].Type == minidb.String {
				row[j] = minidb.NewString(*cell)
				continue
			}
			v, err := minidb.ParseValue(schema[j].Type, *cell)
			if err != nil {
				return nil, nil, fmt.Errorf("wire: row %d column %d: %w", i, j, err)
			}
			row[j] = v
		}
		rows[i] = row
	}
	return schema, rows, nil
}

// jsonArrayElems counts, in one pass that allocates nothing, the elements
// of doc's arrays that are in no other array (outer: in a rowset, its
// columns plus its rows) and of the arrays inside those (inner: its
// cells); objects are not counted as nesting. doc need not be valid: on
// whatever json.Unmarshal accepts the counts are exact. ok is false when
// doc nests containers deeper than a rowset could.
func jsonArrayElems(doc []byte) (outer, inner int, ok bool) {
	var (
		n      [3]int  // n[d]: elements of arrays with d arrays open
		stack  [8]byte // the open containers, innermost last
		sp     int
		arrays int // how many of them are arrays
		// inString: inside a string; opened: just past a '[', whose first
		// element (if the next byte is not its ']') is not yet counted.
		inString, opened bool
	)
	for i := 0; i < len(doc); i++ {
		c := doc[i]
		switch {
		case inString:
			if c == '\\' {
				i++
			} else if c == '"' {
				inString = false
			}
			continue
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			continue
		}
		if opened && c != ']' && arrays <= 2 {
			n[arrays]++
		}
		opened = false
		switch c {
		case '"':
			inString = true
		case '[', '{':
			if sp == len(stack) {
				return 0, 0, false
			}
			stack[sp] = c
			sp++
			if c == '[' {
				arrays++
				opened = true
			}
		case ']', '}':
			if sp == 0 {
				return 0, 0, false
			}
			sp--
			if stack[sp] == '[' {
				arrays--
			}
		case ',':
			// Every element after an array's first follows a comma.
			if sp > 0 && stack[sp-1] == '[' && arrays <= 2 {
				n[arrays]++
			}
		}
	}
	return n[1], n[2], true
}
