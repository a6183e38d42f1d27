package wire

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"wsopt/internal/minidb"
)

// XML is the SOAP-like rowset codec. The payload shape is
//
//	<Envelope><Body><rowset>
//	  <metadata><column name="..." type="..."/>...</metadata>
//	  <rows><row><v>...</v>...</row>...</rows>
//	</rowset></Body></Envelope>
//
// NULL values carry a null="true" attribute so they survive the
// round-trip distinct from empty strings.
//
// Encode streams the document instead of materializing envelope structs:
// rows are written as they are visited, numbers rendered with
// strconv.Append* into a per-encode scratch. The output is byte-identical
// to what encoding/xml produced for the old structs
// (TestXMLStreamMatchesMarshal pins this). Decode is the hand-written
// arena parser in xmldecode.go.
type XML struct{}

// xmlHeader is the declaration Encode opens every document with
// (encoding/xml's Header, spelled out so only tests import that package).
const xmlHeader = `<?xml version="1.0" encoding="UTF-8"?>` + "\n"

// Name implements Codec.
func (XML) Name() string { return "xml" }

// ContentType implements Codec.
func (XML) ContentType() string { return "application/xml" }

// Encode implements Codec, streaming rows as they are visited.
func (XML) Encode(w io.Writer, schema minidb.Schema, rows []minidb.Row) error {
	e := newEncodeBuf(w)
	defer e.release()
	var scratch [40]byte
	e.str(xmlHeader)
	e.str("<Envelope><Body><rowset><metadata>")
	for _, c := range schema {
		e.str(`<column name="`)
		xmlEscape(e, c.Name)
		e.str(`" type="`)
		e.str(typeName(c.Type))
		e.str(`"></column>`)
	}
	e.str("</metadata><rows>")
	for i, r := range rows {
		if len(r) != len(schema) {
			e.finish()
			return fmt.Errorf("wire: row %d has %d values, schema has %d columns", i, len(r), len(schema))
		}
		e.str("<row>")
		for _, v := range r {
			if v.Null {
				e.str(`<v null="true"></v>`)
				continue
			}
			e.str("<v>")
			switch v.Kind {
			case minidb.Int64, minidb.Date:
				e.raw(strconv.AppendInt(scratch[:0], v.I, 10))
			case minidb.Float64:
				e.raw(strconv.AppendFloat(scratch[:0], v.F, 'f', -1, 64))
			default:
				xmlEscape(e, v.String())
			}
			e.str("</v>")
		}
		e.str("</row>")
		e.maybeFlush()
	}
	e.str("</rows></rowset></Body></Envelope>")
	return e.finish()
}

// xmlEscape appends s escaped exactly as encoding/xml's EscapeText does
// for both chardata and attribute values: the five XML specials plus
// tab/newline/carriage-return as character references, and invalid UTF-8
// or out-of-character-range runes replaced by U+FFFD.
func xmlEscape(e *encodeBuf, s string) {
	start := 0
	for i := 0; i < len(s); {
		if escapePlain[s[i]] {
			i++ // the common case: a run of plain ASCII is copied as it is
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		var esc string
		switch r {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if (r != utf8.RuneError || size != 1) && xmlCharOK(r) {
				i += size
				continue
			}
			esc = "�"
		}
		e.str(s[start:i])
		e.str(esc)
		i += size
		start = i
	}
	e.str(s[start:])
}

// escapePlain marks the bytes xmlEscape copies unchanged: printable
// ASCII but the five it escapes. Every other byte (a control, one of the
// five, any byte of a multi-byte rune) takes the rune path. The decoder's
// xmlPlain is a different set: it also passes tab and newline.
var escapePlain = func() (plain [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		plain[c] = !strings.ContainsRune(`"'&<>`, rune(c))
	}
	return plain
}()

// xmlCharOK reports whether r is in the XML character range (the same
// predicate encoding/xml applies before escaping).
func xmlCharOK(r rune) bool {
	return r == 0x09 ||
		r == 0x0A ||
		r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}
