package wire

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"

	"wsopt/internal/minidb"
)

// Tests of the arena XML decoder's input language: what it accepts
// beyond the encoder's own bytes, what it refuses, and that on both
// sides of that line it never disagrees with the encoding/xml reference
// about a document it accepts.

// xmlDoc wraps a <metadata> and a <rows> element in the envelope.
func xmlDoc(metadata, rows string) string {
	return "<Envelope><Body><rowset>" + metadata + rows + "</rowset></Body></Envelope>"
}

const (
	xmlMetaInt    = `<metadata><column name="n" type="INT64"></column></metadata>`
	xmlMetaString = `<metadata><column name="s" type="STRING"></column></metadata>`
)

func xmlRowsOf(cells ...string) string {
	var b strings.Builder
	b.WriteString("<rows>")
	for _, c := range cells {
		b.WriteString("<row>" + c + "</row>")
	}
	b.WriteString("</rows>")
	return b.String()
}

var (
	schemaInt    = minidb.Schema{{Name: "n", Type: minidb.Int64}}
	schemaString = minidb.Schema{{Name: "s", Type: minidb.String}}
)

func stringRows(ss ...string) []minidb.Row {
	rows := make([]minidb.Row, len(ss))
	for i, s := range ss {
		rows[i] = minidb.Row{minidb.NewString(s)}
	}
	return rows
}

// xmlSpellings are documents outside the encoder's image that the
// decoder accepts, with the block each must decode to.
var xmlSpellings = []struct {
	name   string
	xml    string
	schema minidb.Schema
	rows   []minidb.Row
}{
	{"no declaration", xmlDoc(xmlMetaInt, xmlRowsOf("<v>7</v>")),
		schemaInt, []minidb.Row{{minidb.NewInt(7)}}},
	{"declaration, single quotes, no encoding",
		`<?xml version='1.0'?>` + xmlDoc(xmlMetaInt, xmlRowsOf("<v>7</v>")),
		schemaInt, []minidb.Row{{minidb.NewInt(7)}}},
	{"declaration with standalone and lower-case encoding",
		`<?xml version="1.0" encoding="utf-8" standalone="yes" ?>` + "\r\n" + xmlDoc(xmlMetaInt, xmlRowsOf("<v>7</v>")),
		schemaInt, []minidb.Row{{minidb.NewInt(7)}}},
	{"bare declaration", `<?xml?>` + xmlDoc(xmlMetaInt, "<rows/>"), schemaInt, nil},
	{"indented",
		"\n<Envelope>\n  <Body>\r\n    <rowset >\n\t<metadata>\n <column\n name = 'n'\ttype=\"INT64\" />\n</metadata >\n" +
			"<rows>\n <row>\n  <v>1</v>\n </row >\n <row> <v >2</v > </row>\n</rows>\n</rowset>\n</Body>\n</Envelope>\n\n",
		schemaInt, []minidb.Row{{minidb.NewInt(1)}, {minidb.NewInt(2)}}},
	{"empty-element forms",
		xmlDoc(`<metadata><column type="STRING" name="s"/><column name="n" type="INT64"/></metadata>`,
			xmlRowsOf(`<v/><v/>`, `<v null="true"/><v null='1' />`, `<v></v><v></v>`)),
		minidb.Schema{{Name: "s", Type: minidb.String}, {Name: "n", Type: minidb.Int64}},
		[]minidb.Row{
			{minidb.NewString(""), minidb.Null(minidb.Int64)},
			{minidb.Null(minidb.String), minidb.Null(minidb.Int64)},
			{minidb.NewString(""), minidb.Null(minidb.Int64)},
		}},
	{"no columns, empty rows", xmlDoc("<metadata/>", "<rows><row/><row></row></rows>"),
		minidb.Schema{}, []minidb.Row{{}, {}}},
	{"null spellings",
		xmlDoc(xmlMetaString, xmlRowsOf(`<v null="T">x</v>`, `<v null="false">x</v>`, `<v null="0">y</v>`, `<v null="TRUE">ignored &amp; checked</v>`)),
		schemaString, []minidb.Row{{minidb.Null(minidb.String)}, {minidb.NewString("x")}, {minidb.NewString("y")}, {minidb.Null(minidb.String)}}},
	{"entities and character references",
		xmlDoc(xmlMetaString, xmlRowsOf(`<v>&lt;&gt;&amp;&apos;&quot;</v>`, `<v>&#65;&#x42;&#x1f600;&#x1F600;&#0000067;</v>`, `<v>a&#xD;&#xA;b&#13;c&#9;</v>`)),
		schemaString, stringRows(`<>&'"`, "AB\U0001F600\U0001F600C", "a\r\nb\rc\t")},
	{"line ends are normalised, references are not",
		xmlDoc(xmlMetaString, xmlRowsOf("<v>a\r\nb\rc\r\r\nd\n\re&#xD;\n</v>")),
		schemaString, stringRows("a\nb\nc\n\nd\n\ne\r\n")},
	{"raw quotes, '>' and brackets in text",
		xmlDoc(xmlMetaString, xmlRowsOf(`<v>it's "x" > y ]] ]&gt; ]]&gt; ]]&#62;</v>`)),
		schemaString, stringRows(`it's "x" > y ]] ]> ]]> ]]>`)},
	{"raw UTF-8 text and whitespace kept inside v",
		xmlDoc(xmlMetaString, xmlRowsOf("<v>  λ日本語 \U0001F600 � </v>")),
		schemaString, stringRows("  λ日本語 \U0001F600 � ")},
	{"escaped column name, quotes inside quotes",
		xmlDoc(`<metadata><column name='a"&lt;&#x9;]]>' type="DATE"/></metadata>`, xmlRowsOf("<v>&#45;12</v>")),
		minidb.Schema{{Name: "a\"<\t]]>", Type: minidb.Date}}, []minidb.Row{{minidb.NewDate(-12)}}},
	{"numbers as strconv reads them",
		xmlDoc(`<metadata><column name="f" type="FLOAT64"/><column name="n" type="INT64"/></metadata>`,
			xmlRowsOf("<v>1e3</v><v>+5</v>", "<v>-Inf</v><v>-0</v>", "<v>0x1p-2</v><v>9223372036854775807</v>")),
		minidb.Schema{{Name: "f", Type: minidb.Float64}, {Name: "n", Type: minidb.Int64}},
		[]minidb.Row{
			{minidb.NewFloat(1000), minidb.NewInt(5)},
			{minidb.NewFloat(math.Inf(-1)), minidb.NewInt(0)},
			{minidb.NewFloat(0.25), minidb.NewInt(9223372036854775807)},
		}},
}

// xmlRejected are documents the decoder must refuse (most of which
// encoding/xml would read, skipping what it does not know).
var xmlRejected = []struct{ name, xml string }{
	{"CDATA", xmlDoc(xmlMetaString, xmlRowsOf("<v><![CDATA[x]]></v>"))},
	{"comment between elements", xmlDoc(xmlMetaInt, "<!-- c --><rows/>")},
	{"comment in a value", xmlDoc(xmlMetaString, xmlRowsOf("<v>a<!-- c -->b</v>"))},
	{"DOCTYPE", "<!DOCTYPE Envelope>" + xmlDoc(xmlMetaInt, "<rows/>")},
	{"processing instruction", "<?pi x?>" + xmlDoc(xmlMetaInt, "<rows/>")},
	{"processing instruction in a value", xmlDoc(xmlMetaString, xmlRowsOf("<v>a<?pi x?></v>"))},
	{"stylesheet instruction", `<?xml-stylesheet href="x"?>` + xmlDoc(xmlMetaInt, "<rows/>")},
	{"declaration after whitespace", ` <?xml version="1.0"?>` + xmlDoc(xmlMetaInt, "<rows/>")},
	{"declaration twice", `<?xml version="1.0"?><?xml version="1.0"?>` + xmlDoc(xmlMetaInt, "<rows/>")},
	{"XML 1.1", `<?xml version="1.1"?>` + xmlDoc(xmlMetaInt, "<rows/>")},
	{"other encoding", `<?xml version="1.0" encoding="ISO-8859-1"?>` + xmlDoc(xmlMetaInt, "<rows/>")},
	{"declaration with spaces around =", `<?xml version = "1.0"?>` + xmlDoc(xmlMetaInt, "<rows/>")},
	{"unknown declaration attribute", `<?xml version="1.0" charset="utf-8"?>` + xmlDoc(xmlMetaInt, "<rows/>")},
	{"unterminated declaration", `<?xml version="1.0"`},
	{"prefixed element", `<s:Envelope xmlns:s="u"><s:Body/></s:Envelope>`},
	{"namespace declaration", `<Envelope xmlns="u"><Body><rowset>` + xmlMetaInt + `<rows/></rowset></Body></Envelope>`},
	{"wrong case", strings.Replace(xmlDoc(xmlMetaInt, "<rows/>"), "<Envelope>", "<envelope>", 1)},
	{"unknown element", xmlDoc(xmlMetaInt, "<extra/><rows/>")},
	{"unknown element in a row", xmlDoc(xmlMetaInt, xmlRowsOf("<v>1</v><w>2</w>"))},
	{"element in a value", xmlDoc(xmlMetaString, xmlRowsOf("<v>a<b/>c</v>"))},
	{"unknown attribute on v", xmlDoc(xmlMetaInt, xmlRowsOf(`<v x="1">1</v>`))},
	{"prefixed attribute on v", xmlDoc(xmlMetaInt, xmlRowsOf(`<v xsi:nil="true"></v>`))},
	{"repeated null attribute", xmlDoc(xmlMetaInt, xmlRowsOf(`<v null="true" null="false">1</v>`))},
	{"attribute on row", xmlDoc(xmlMetaInt, `<rows><row id="1"><v>1</v></row></rows>`)},
	{"unknown column attribute", xmlDoc(`<metadata><column name="n" type="INT64" size="8"/></metadata>`, "<rows/>")},
	{"repeated column attribute", xmlDoc(`<metadata><column name="n" name="m" type="INT64"/></metadata>`, "<rows/>")},
	{"column without type", xmlDoc(`<metadata><column name="n"/></metadata>`, "<rows/>")},
	{"column without name", xmlDoc(`<metadata><column type="INT64"/></metadata>`, "<rows/>")},
	{"unknown column type", xmlDoc(`<metadata><column name="n" type="BLOB"/></metadata>`, "<rows/>")},
	{"text in a column", xmlDoc(`<metadata><column name="n" type="INT64">x</column></metadata>`, "<rows/>")},
	{"attributes run together", xmlDoc(`<metadata><column name="n"type="INT64"/></metadata>`, "<rows/>")},
	{"unquoted attribute", xmlDoc(xmlMetaInt, xmlRowsOf(`<v null=true></v>`))},
	{"attribute without value", xmlDoc(xmlMetaInt, xmlRowsOf(`<v null></v>`))},
	{"unterminated attribute", xmlDoc(xmlMetaInt, `<rows><row><v null="true></v></row></rows>`)},
	{"'<' in an attribute value", xmlDoc(`<metadata><column name="a<b" type="INT64"/></metadata>`, "<rows/>")},
	{"bad null", xmlDoc(xmlMetaInt, xmlRowsOf(`<v null="maybe">1</v>`))},
	{"empty null", xmlDoc(xmlMetaInt, xmlRowsOf(`<v null="">1</v>`))},
	{"padded null", xmlDoc(xmlMetaInt, xmlRowsOf(`<v null=" true">1</v>`))},
	{"text in a row", xmlDoc(xmlMetaInt, xmlRowsOf("x<v>1</v>"))},
	{"text between rows", xmlDoc(xmlMetaInt, "<rows>x</rows>")},
	{"text before the root", "x" + xmlDoc(xmlMetaInt, "<rows/>")},
	{"text after the root", xmlDoc(xmlMetaInt, "<rows/>") + "x"},
	{"second root", xmlDoc(xmlMetaInt, "<rows/>") + xmlDoc(xmlMetaInt, "<rows/>")},
	{"NUL after the root", xmlDoc(xmlMetaInt, "<rows/>") + "\x00"},
	{"rows before metadata", xmlDoc("<rows/>", xmlMetaInt)},
	{"no metadata", xmlDoc("", "<rows/>")},
	{"no rows", xmlDoc(xmlMetaInt, "")},
	{"metadata twice", xmlDoc(xmlMetaInt+xmlMetaInt, "<rows/>")},
	{"rows twice", xmlDoc(xmlMetaInt, "<rows/><rows/>")},
	{"empty rowset", "<Envelope><Body><rowset></rowset></Body></Envelope>"},
	{"empty envelope", "<Envelope/>"},
	{"empty body", "<Envelope><Body/></Envelope>"},
	{"mismatched end tag", xmlDoc(xmlMetaInt, "<rows><row><v>1</row></v></rows>")},
	{"end tag with junk", xmlDoc(xmlMetaInt, "<rows><row><v>1</v x></row></rows>")},
	{"too few values", xmlDoc(xmlMetaInt, xmlRowsOf("<v>1</v>", ""))},
	{"too many values", xmlDoc(xmlMetaInt, xmlRowsOf("<v>1</v><v>2</v>"))},
	{"value without columns", xmlDoc("<metadata/>", xmlRowsOf("<v>1</v>"))},
	{"not a number", xmlDoc(xmlMetaInt, xmlRowsOf("<v>abc</v>"))},
	{"padded number", xmlDoc(xmlMetaInt, xmlRowsOf("<v> 1</v>"))},
	{"integer overflow", xmlDoc(xmlMetaInt, xmlRowsOf("<v>9223372036854775808</v>"))},
	{"float in an integer column", xmlDoc(xmlMetaInt, xmlRowsOf("<v>1.5</v>"))},
	{`"]]>" in text`, xmlDoc(xmlMetaString, xmlRowsOf("<v>a]]>b</v>"))},
	{"unknown entity", xmlDoc(xmlMetaString, xmlRowsOf("<v>&nbsp;</v>"))},
	{"entity without semicolon", xmlDoc(xmlMetaString, xmlRowsOf("<v>&amp</v>"))},
	{"bare ampersand", xmlDoc(xmlMetaString, xmlRowsOf("<v>a & b</v>"))},
	{"empty reference", xmlDoc(xmlMetaString, xmlRowsOf("<v>&#;</v>"))},
	{"empty hex reference", xmlDoc(xmlMetaString, xmlRowsOf("<v>&#x;</v>"))},
	{"upper-case X reference", xmlDoc(xmlMetaString, xmlRowsOf("<v>&#X41;</v>"))},
	{"hex digits in a decimal reference", xmlDoc(xmlMetaString, xmlRowsOf("<v>&#4a;</v>"))},
	{"reference past U+10FFFF", xmlDoc(xmlMetaString, xmlRowsOf("<v>&#x110000;</v>"))},
	{"reference overflowing", xmlDoc(xmlMetaString, xmlRowsOf("<v>&#99999999999999999999;</v>"))},
	{"reference to NUL", xmlDoc(xmlMetaString, xmlRowsOf("<v>&#0;</v>"))},
	{"reference to a control character", xmlDoc(xmlMetaString, xmlRowsOf("<v>&#x1;</v>"))},
	{"reference to a surrogate", xmlDoc(xmlMetaString, xmlRowsOf("<v>&#xD800;</v>"))},
	{"reference to U+FFFE", xmlDoc(xmlMetaString, xmlRowsOf("<v>&#xFFFE;</v>"))},
	{"invalid UTF-8", xmlDoc(xmlMetaString, xmlRowsOf("<v>a\xffb</v>"))},
	{"truncated UTF-8 before a reference", xmlDoc(xmlMetaString, xmlRowsOf("<v>\xc3&#x80;</v>"))},
	{"encoded surrogate", xmlDoc(xmlMetaString, xmlRowsOf("<v>\xed\xa0\x80</v>"))},
	{"raw control character", xmlDoc(xmlMetaString, xmlRowsOf("<v>a\x01b</v>"))},
	{"raw NUL", xmlDoc(xmlMetaString, xmlRowsOf("<v>a\x00b</v>"))},
	{"raw U+FFFF", xmlDoc(xmlMetaString, xmlRowsOf("<v>￿</v>"))},
	{"control character in a column name", xmlDoc("<metadata><column name=\"a\x02\" type=\"INT64\"/></metadata>", "<rows/>")},
	{"control character between elements", xmlDoc(xmlMetaInt, "\x0b<rows/>")},
}

func TestXMLDecodeSpellings(t *testing.T) {
	for _, tc := range xmlSpellings {
		t.Run(tc.name, func(t *testing.T) {
			schema, rows, err := XML{}.Decode(strings.NewReader(tc.xml))
			if err != nil {
				t.Fatalf("rejected: %v\n%q", err, tc.xml)
			}
			sameBlock(t, "decoded vs expected", tc.schema, tc.rows, schema, rows)
			checkDecode(t, XML{}, []byte(tc.xml)) // agrees with encoding/xml, scratch-safe
		})
	}
}

func TestXMLDecodeRejects(t *testing.T) {
	for _, tc := range xmlRejected {
		t.Run(tc.name, func(t *testing.T) {
			if _, rows, err := (XML{}).Decode(strings.NewReader(tc.xml)); err == nil {
				t.Fatalf("accepted as %d rows: %q", len(rows), tc.xml)
			}
		})
	}
	t.Run("too many columns", func(t *testing.T) {
		for n, want := range map[int]bool{maxXMLColumns: true, maxXMLColumns + 1: false} {
			meta := "<metadata>" + strings.Repeat(`<column name="c" type="INT64"/>`, n) + "</metadata>"
			schema, _, err := XML{}.Decode(strings.NewReader(xmlDoc(meta, "<rows/>")))
			if (err == nil) != want || want && len(schema) != n {
				t.Fatalf("%d columns: err=%v, schema of %d", n, err, len(schema))
			}
		}
	})
}

// xmlSanitize is what a string looks like after the encoder's escaping:
// bytes that are not UTF-8 and runes outside the XML character range
// have become U+FFFD.
func xmlSanitize(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || !xmlCharOK(r) {
			r = utf8.RuneError
		}
		b.WriteRune(r)
		i += size
	}
	return b.String()
}

func xmlSanitizeBlock(schema minidb.Schema, rows []minidb.Row) (minidb.Schema, []minidb.Row) {
	outSchema := make(minidb.Schema, len(schema))
	for i, c := range schema {
		outSchema[i] = minidb.Column{Name: xmlSanitize(c.Name), Type: c.Type}
	}
	out := retainRows(rows)
	for _, r := range out {
		for j := range r {
			r[j].S = xmlSanitize(r[j].S)
		}
	}
	return outSchema, out
}

// checkEncoderImage encodes a block and requires both decoders to
// accept the document and to return the block (after sanitising).
func checkEncoderImage(t *testing.T, label string, schema minidb.Schema, rows []minidb.Row) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := (XML{}).Encode(&buf, schema, rows); err != nil {
		t.Fatalf("%s: encode: %v", label, err)
	}
	doc := buf.Bytes()
	wantSchema, want := xmlSanitizeBlock(schema, rows)
	gotSchema, got, err := XML{}.Decode(bytes.NewReader(doc))
	if err != nil {
		t.Fatalf("%s: the decoder rejects the encoder's output: %v\n%q", label, err, doc)
	}
	sameBlock(t, label+": decoded vs encoded", wantSchema, want, gotSchema, got)
	checkDecode(t, XML{}, doc)
	return doc
}

// TestXMLDecodeEncoderImage: every document the encoder can write is
// accepted by the arena parser and by encoding/xml, with one result,
// and no proper prefix of one is a document.
func TestXMLDecodeEncoderImage(t *testing.T) {
	for _, tc := range equivalenceBlocks() {
		doc := checkEncoderImage(t, tc.name, tc.schema, tc.rows)
		for n := 0; n < len(doc); n++ {
			if _, _, err := (XML{}).Decode(bytes.NewReader(doc[:n])); err == nil {
				t.Fatalf("%s: prefix of %d/%d bytes accepted: %q", tc.name, n, len(doc), doc[:n])
			}
		}
	}

	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 300; iter++ {
		schema, rows := randEquivBlock(rng)
		checkEncoderImage(t, fmt.Sprintf("random block %d", iter), schema, rows)
	}

	// NULL-heavy and empty-string rows, and a string of every character
	// the encoder escapes.
	schema := minidb.Schema{{Name: "a", Type: minidb.String}, {Name: "b", Type: minidb.String}, {Name: "n", Type: minidb.Int64}}
	var rows []minidb.Row
	for i := 0; i < 40; i++ {
		row := minidb.Row{minidb.NewString(""), minidb.NewString("<>&\"'\t\n\r\x00\xff]]>"), minidb.NewInt(int64(i))}
		for j := range row {
			if (i>>j)&1 == 1 {
				row[j] = minidb.Null(schema[j].Type)
			}
		}
		rows = append(rows, row)
	}
	checkEncoderImage(t, "null-heavy", schema, rows)
}

// TestXMLDecodeSchemaCache: blocks of one session share a schema
// allocation; a different <metadata> replaces it, and one that differs
// only in spelling is not mistaken for it.
func TestXMLDecodeSchemaCache(t *testing.T) {
	s := new(Scratch)
	decode := func(doc string) minidb.Schema {
		t.Helper()
		schema, _, err := XML{}.DecodeScratch(strings.NewReader(doc), s)
		if err != nil {
			t.Fatal(err)
		}
		return schema
	}
	a1 := decode(xmlDoc(xmlMetaInt, xmlRowsOf("<v>1</v>")))
	a2 := decode(xmlDoc(xmlMetaInt, xmlRowsOf("<v>2</v>", "<v>3</v>")))
	if &a1[0] != &a2[0] {
		t.Fatal("an identical <metadata> was parsed again")
	}
	b := decode(xmlDoc(xmlMetaString, xmlRowsOf("<v>x</v>")))
	if b[0] != schemaString[0] || a1[0] != schemaInt[0] {
		t.Fatalf("schema change: got %v, first block's schema now %v", b, a1)
	}
	// A prefix of the cached element is not the cached element.
	wide := decode(xmlDoc(`<metadata><column name="s" type="STRING"></column><column name="n" type="INT64"/></metadata>`, "<rows/>"))
	if len(wide) != 2 {
		t.Fatalf("wider schema decoded as %v", wide)
	}
	// Scratches are pooled across clients: another codec's decode in
	// between must neither be served the XML schema nor leave its own.
	var bin bytes.Buffer
	if err := (Binary{}).Encode(&bin, schemaInt, []minidb.Row{{minidb.NewInt(1)}}); err != nil {
		t.Fatal(err)
	}
	if schema, _, err := (Binary{}).DecodeScratch(&bin, s); err != nil || schema[0] != schemaInt[0] {
		t.Fatalf("binary decode on an XML-used scratch: %v, %v", schema, err)
	}
	if got := decode(xmlDoc(xmlMetaString, "<rows/>")); got[0] != schemaString[0] {
		t.Fatalf("xml decode after a binary one: %v", got)
	}
}
