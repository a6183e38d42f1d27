package wire

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"wsopt/internal/minidb"
)

// The XML decoder is a hand-written, in-place parser for the one rowset
// grammar XML.Encode writes, not a general XML parser. Its input
// language is the encoder's image plus the XML-equivalent spellings
// that cost nothing to accept:
//
//   - an optional declaration, only at offset 0, with version="1.0",
//     encoding="utf-8" (any case) and standalone="yes|no" written
//     without spaces around '=';
//   - whitespace before, between and after elements (never inside <v>,
//     where it is data);
//   - <e/> for any element that may be empty (metadata, column, rows,
//     row, v);
//   - either quote character around attribute values, whitespace around
//     the '=';
//   - in <v> text and attribute values: the five predefined entities,
//     decimal and hex character references to characters in the XML
//     range (xmlCharOK), raw "\r\n" and "\r" read as "\n";
//   - null spelled any way strconv.ParseBool accepts;
//   - an empty <v> in a non-string column is NULL (as ParseValue has it).
//
// Text must be valid UTF-8 inside the XML character range, every row
// must be as wide as the schema, and a schema has at most maxXMLColumns
// columns. Everything else — CDATA, comments, DOCTYPE, other processing
// instructions, prefixed or unknown elements and attributes, repeated
// or missing attributes, elements out of order, text outside <v>,
// "]]>" in text, bytes after </Envelope> — is an error, never a
// differently-decoded block. Every document accepted here is accepted
// by encoding/xml with the same result (the reference decoder in the
// tests is the oracle); the converse does not hold and need not: the
// only XML producer in the tree is XML.Encode.

// maxXMLColumns caps the schema width, as the binary decoder does.
const maxXMLColumns = 4096

// Decode implements Codec. It is DecodeScratch with a throwaway scratch,
// so the returned rows own fresh memory.
func (x XML) Decode(r io.Reader) (minidb.Schema, []minidb.Row, error) {
	var s Scratch
	return x.DecodeScratch(r, &s)
}

// DecodeScratch implements ScratchDecoder: the whole document is read
// into the scratch's raw buffer and parsed in one pass. Rows and values
// live in the scratch's reusable arrays, string cells are unescaped into
// strbuf and sliced out of one immutable per-block arena string (so a
// shallow Value copy retains a cell), numeric cells are parsed straight
// from the unescaped bytes, and the schema is reused when the raw
// <metadata> element equals the previous block's.
func (XML) DecodeScratch(r io.Reader, s *Scratch) (minidb.Schema, []minidb.Row, error) {
	if s == nil {
		s = &Scratch{}
	}
	raw, err := readAllReuse(r, s.raw[:0])
	s.raw = raw
	if err != nil {
		return nil, nil, fmt.Errorf("wire: xml decode: %w", err)
	}
	p := xmlParser{b: raw, maxCells: s.MaxCells, vals: s.vals[:0], strbuf: s.strbuf[:0], spans: s.spans[:0]}
	schema, rows, err := p.document(s)
	s.vals, s.strbuf, s.spans = p.vals, p.strbuf, p.spans
	if err != nil {
		return nil, nil, fmt.Errorf("wire: xml decode: %w", err)
	}
	return schema, rows, nil
}

// xmlParser walks one in-memory document, accumulating the block's
// cells in vals and its string cells' unescaped bytes in strbuf.
type xmlParser struct {
	b   []byte
	off int
	// maxCells is the scratch's MaxCells (0 = unbounded).
	maxCells int

	vals   []minidb.Value
	strbuf []byte
	spans  []int
}

// xmlWrappers are the elements around the rowset's two children.
var xmlWrappers = [...]string{"Envelope", "Body", "rowset"}

func (p *xmlParser) document(s *Scratch) (minidb.Schema, []minidb.Row, error) {
	if err := p.declaration(); err != nil {
		return nil, nil, err
	}
	for _, name := range xmlWrappers {
		empty, err := p.open(name)
		if err != nil {
			return nil, nil, err
		}
		if empty {
			return nil, nil, p.errf("<%s> has no content", name)
		}
	}
	schema, err := p.metadata(s)
	if err != nil {
		return nil, nil, err
	}
	nrows, err := p.rows(schema)
	if err != nil {
		return nil, nil, err
	}
	for i := len(xmlWrappers) - 1; i >= 0; i-- {
		if err := p.close(xmlWrappers[i]); err != nil {
			return nil, nil, err
		}
	}
	if p.skipSpace(); p.off < len(p.b) {
		return nil, nil, p.errf("data after </Envelope>")
	}

	// One arena per block, then slice every string cell out of it and
	// cut vals into rows (only now: appends may have moved vals).
	arena := string(p.strbuf)
	si := 0
	for k := range p.vals {
		if v := &p.vals[k]; v.Kind == minidb.String && !v.Null {
			off, ln := p.spans[si], p.spans[si+1]
			si += 2
			v.S = arena[off : off+ln]
		}
	}
	rows := s.rows
	if cap(rows) < nrows {
		rows = make([]minidb.Row, nrows)
	}
	rows = rows[:nrows]
	ncols := len(schema)
	for i := range rows {
		rows[i] = minidb.Row(p.vals[i*ncols : (i+1)*ncols : (i+1)*ncols])
	}
	s.rows = rows
	return schema, rows, nil
}

// errf reports a syntax error at the current offset; running out of
// input is io.ErrUnexpectedEOF whatever was expected.
func (p *xmlParser) errf(format string, args ...any) error {
	if p.off >= len(p.b) {
		return fmt.Errorf("offset %d: %w", p.off, io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("offset %d: %s", p.off, fmt.Sprintf(format, args...))
}

func (p *xmlParser) skipSpace() (skipped bool) {
	start := p.off
	for p.off < len(p.b) {
		switch p.b[p.off] {
		case ' ', '\t', '\r', '\n':
			p.off++
		default:
			return p.off > start
		}
	}
	return p.off > start
}

// lit consumes s if the input continues with it.
func (p *xmlParser) lit(s string) bool {
	if len(p.b)-p.off < len(s) {
		return false
	}
	// Every literal is a few bytes: a loop beats a memequal call.
	for i := 0; i < len(s); i++ {
		if p.b[p.off+i] != s[i] {
			return false
		}
	}
	p.off += len(s)
	return true
}

// openName consumes "<name" after optional whitespace, leaving the rest
// of the start tag (attributes, ">" or "/>") to the caller.
func (p *xmlParser) openName(name string) error {
	p.skipSpace()
	if p.lit("<") && p.lit(name) && p.off < len(p.b) {
		switch p.b[p.off] {
		case ' ', '\t', '\r', '\n', '/', '>':
			return nil
		}
	}
	return p.errf("expected <%s>", name)
}

// open consumes the start tag of an element that takes no attributes
// and reports whether it was the empty-element form <name/>.
func (p *xmlParser) open(name string) (empty bool, err error) {
	if err := p.openName(name); err != nil {
		return false, err
	}
	attr, _, empty, err := p.attr(nil)
	if err == nil && attr != nil {
		err = p.errf("<%s> takes no attributes", name)
	}
	return empty, err
}

// atClose skips whitespace and reports whether an end tag follows.
func (p *xmlParser) atClose() bool {
	p.skipSpace()
	return p.off+1 < len(p.b) && p.b[p.off] == '<' && p.b[p.off+1] == '/'
}

func (p *xmlParser) close(name string) error {
	p.skipSpace()
	if p.lit("</") && p.lit(name) {
		if p.skipSpace(); p.lit(">") {
			return nil
		}
	}
	return p.errf("expected </%s>", name)
}

// attr parses the next attribute of the start tag being read, appending
// its unescaped value to dst (val is that tail of dst). At the end of
// the tag it returns a nil name and whether the tag was <.../>.
func (p *xmlParser) attr(dst []byte) (name, val []byte, empty bool, err error) {
	spaced := p.skipSpace()
	switch {
	case p.lit(">"):
		return nil, nil, false, nil
	case p.lit("/>"):
		return nil, nil, true, nil
	case !spaced:
		return nil, nil, false, p.errf("malformed start tag")
	}
	start := p.off
	for p.off < len(p.b) && 'a' <= p.b[p.off] && p.b[p.off] <= 'z' {
		p.off++
	}
	name = p.b[start:p.off]
	if p.skipSpace(); len(name) == 0 || !p.lit("=") {
		return nil, nil, false, p.errf("malformed attribute")
	}
	if p.skipSpace(); !p.lit(`"`) && !p.lit(`'`) {
		return nil, nil, false, p.errf("attribute value is not quoted")
	}
	n := len(dst)
	dst, err = p.text(dst, p.b[p.off-1])
	return name, dst[n:], false, err
}

// xmlPlain marks the bytes text copies without a second look: printable
// ASCII, tab and newline, minus the characters that end a run or need a
// check ('<', '&', '>', both quotes).
var xmlPlain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = true
	}
	t['\t'], t['\n'] = true, true
	for _, c := range `<&>"'` {
		t[c] = false
	}
	return t
}()

// text consumes character data, appending it unescaped to dst: element
// content up to (not including) the next '<' when quote is 0, an
// attribute value up to and including its closing quote otherwise. It
// applies the checks encoding/xml applies to text: valid UTF-8, the XML
// character range, no "]]>" in content, no '<' in attribute values.
func (p *xmlParser) text(dst []byte, quote byte) ([]byte, error) {
	b := p.b
	run := p.off // start of the bytes not yet copied to dst
	for i := p.off; i < len(b); {
		c := b[i]
		switch {
		case xmlPlain[c]:
			i++
		case c == '<':
			p.off = i
			if quote != 0 {
				return dst, p.errf("'<' in attribute value")
			}
			return append(dst, b[run:i]...), nil
		case c == '"' || c == '\'':
			if c == quote {
				p.off = i + 1
				return append(dst, b[run:i]...), nil
			}
			i++
		case c == '>':
			if quote == 0 && i >= 2 && b[i-1] == ']' && b[i-2] == ']' {
				p.off = i
				return dst, p.errf(`"]]>" in text`)
			}
			i++
		case c == '&':
			dst = append(dst, b[run:i]...)
			p.off = i
			var err error
			if dst, err = p.reference(dst); err != nil {
				return dst, err
			}
			i, run = p.off, p.off
		case c == '\r':
			dst = append(append(dst, b[run:i]...), '\n')
			if i++; i < len(b) && b[i] == '\n' {
				i++
			}
			run = i
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				p.off = i
				return dst, p.errf("invalid UTF-8")
			}
			if !xmlCharOK(r) {
				p.off = i
				return dst, p.errf("illegal character %U", r)
			}
			i += size
		default:
			p.off = i
			return dst, p.errf("illegal character %U", c)
		}
	}
	p.off = len(b)
	return dst, p.errf("unterminated text")
}

// reference consumes the entity or character reference at the current
// '&' and appends the character it stands for.
func (p *xmlParser) reference(dst []byte) ([]byte, error) {
	base := rune(0)
	switch {
	case p.lit("&lt;"):
		return append(dst, '<'), nil
	case p.lit("&gt;"):
		return append(dst, '>'), nil
	case p.lit("&amp;"):
		return append(dst, '&'), nil
	case p.lit("&apos;"):
		return append(dst, '\''), nil
	case p.lit("&quot;"):
		return append(dst, '"'), nil
	case p.lit("&#x"):
		base = 16
	case p.lit("&#"):
		base = 10
	default:
		return dst, p.errf("unknown entity")
	}
	start, r := p.off, rune(0)
	for ; p.off < len(p.b) && r <= utf8.MaxRune; p.off++ {
		c, d := p.b[p.off], rune(-1)
		switch {
		case '0' <= c && c <= '9':
			d = rune(c - '0')
		case base == 16 && 'a' <= c && c <= 'f':
			d = rune(c-'a') + 10
		case base == 16 && 'A' <= c && c <= 'F':
			d = rune(c-'A') + 10
		}
		if d < 0 {
			break
		}
		r = r*base + d
	}
	if p.off == start || !xmlCharOK(r) || !p.lit(";") {
		return dst, p.errf("malformed or out-of-range character reference")
	}
	return utf8.AppendRune(dst, r), nil
}

// declaration consumes an XML declaration at the very start of the
// document, if there is one. Only values encoding/xml also accepts
// pass, spelled so that its (substring-matching) reading of them agrees.
func (p *xmlParser) declaration() error {
	if !p.lit("<?xml") {
		return nil
	}
	for {
		spaced := p.skipSpace()
		if p.lit("?>") {
			return nil
		}
		if !spaced {
			return p.errf("malformed XML declaration")
		}
		rest := p.b[p.off:]
		eq := bytes.IndexByte(rest, '=')
		if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' && rest[eq+1] != '\'' {
			return p.errf("malformed XML declaration")
		}
		end := bytes.IndexByte(rest[eq+2:], rest[eq+1])
		if end < 0 {
			return p.errf("malformed XML declaration")
		}
		val := string(rest[eq+2 : eq+2+end])
		ok := false
		switch string(rest[:eq]) {
		case "version":
			ok = val == "1.0"
		case "encoding":
			ok = strings.EqualFold(val, "utf-8")
		case "standalone":
			ok = val == "yes" || val == "no"
		}
		if !ok {
			return p.errf("unsupported XML declaration: %s", rest[:eq+2+end+1])
		}
		p.off += eq + 2 + end + 1
	}
}

// metadata parses <metadata>, or skips it and reuses the cached schema
// when its raw bytes are the previous block's: the element parses the
// same whatever follows it, so equal bytes are an equal schema.
func (p *xmlParser) metadata(s *Scratch) (minidb.Schema, error) {
	p.skipSpace()
	if s.schemaCodec == "xml" && bytes.HasPrefix(p.b[p.off:], s.schemaRaw) {
		p.off += len(s.schemaRaw)
		return s.schema, nil
	}
	start := p.off
	empty, err := p.open("metadata")
	if err != nil {
		return nil, err
	}
	schema := minidb.Schema{}
	for !empty && !p.atClose() {
		if len(schema) == maxXMLColumns {
			return nil, p.errf("more than %d columns", maxXMLColumns)
		}
		col, err := p.column()
		if err != nil {
			return nil, err
		}
		schema = append(schema, col)
	}
	if !empty {
		if err := p.close("metadata"); err != nil {
			return nil, err
		}
	}
	s.cacheSchema("xml", schema, p.b[start:p.off])
	return schema, nil
}

func (p *xmlParser) column() (minidb.Column, error) {
	var col minidb.Column
	if err := p.openName("column"); err != nil {
		return col, err
	}
	var haveName, haveType bool
	for {
		name, val, empty, err := p.attr(p.strbuf)
		if err != nil {
			return col, err
		}
		if name == nil {
			if !haveName || !haveType {
				return col, p.errf("<column> needs a name and a type")
			}
			if empty {
				return col, nil
			}
			return col, p.close("column")
		}
		switch {
		case string(name) == "name" && !haveName:
			col.Name, haveName = string(val), true
		case string(name) == "type" && !haveType:
			if col.Type, err = parseTypeName(string(val)); err != nil {
				return col, err
			}
			haveType = true
		default:
			return col, p.errf("unknown or repeated <column> attribute %q", name)
		}
	}
}

// rows parses <rows> into p.vals and returns the row count.
func (p *xmlParser) rows(schema minidb.Schema) (int, error) {
	empty, err := p.open("rows")
	if err != nil {
		return 0, err
	}
	nrows := 0
	for !empty && !p.atClose() {
		// A row is at least one cell to the limit, so that rows of a
		// zero-column schema are bounded too; with the check per row the
		// arrays overshoot the limit by less than one row.
		if p.maxCells > 0 && max(len(p.vals), nrows) >= p.maxCells {
			return 0, fmt.Errorf("row %d: %w", nrows, ErrTooManyCells)
		}
		emptyRow, err := p.open("row")
		if err != nil {
			return 0, err
		}
		j := 0
		for ; !emptyRow && !p.atClose(); j++ {
			if j == len(schema) {
				return 0, p.errf("row %d has more values than the schema's %d columns", nrows, len(schema))
			}
			if err := p.cell(schema[j].Type); err != nil {
				return 0, fmt.Errorf("row %d column %d: %w", nrows, j, err)
			}
		}
		if j != len(schema) {
			return 0, p.errf("row %d has %d values, schema has %d columns", nrows, j, len(schema))
		}
		if !emptyRow {
			if err := p.close("row"); err != nil {
				return 0, err
			}
		}
		nrows++
	}
	if !empty {
		if err := p.close("rows"); err != nil {
			return 0, err
		}
	}
	return nrows, nil
}

// cell parses one <v> and appends its value. The text lands at the tail
// of strbuf; only a non-NULL string cell keeps it there.
func (p *xmlParser) cell(t minidb.Type) error {
	if err := p.openName("v"); err != nil {
		return err
	}
	n := len(p.strbuf)
	null, haveNull, empty := false, false, false
	for {
		name, val, emptyTag, err := p.attr(p.strbuf)
		if err != nil {
			return err
		}
		if name == nil {
			empty = emptyTag
			break
		}
		if string(name) != "null" || haveNull {
			return p.errf("unknown or repeated <v> attribute %q", name)
		}
		if null, err = strconv.ParseBool(string(val)); err != nil {
			return p.errf("bad null attribute %q", val)
		}
		haveNull = true
	}
	if !empty {
		var err error
		if p.strbuf, err = p.text(p.strbuf[:n], 0); err != nil {
			return err
		}
		if err := p.close("v"); err != nil {
			return err
		}
	}
	data := p.strbuf[n:]
	if t != minidb.String || null {
		p.strbuf = p.strbuf[:n]
	}
	var v minidb.Value
	switch {
	case null || len(data) == 0 && t != minidb.String:
		v = minidb.Null(t)
	case t == minidb.String:
		p.spans = append(p.spans, n, len(data))
		v = minidb.Value{Kind: minidb.String}
	case t == minidb.Float64:
		f, err := strconv.ParseFloat(string(data), 64)
		if err != nil {
			return fmt.Errorf("bad FLOAT64 %q: %w", data, err)
		}
		v = minidb.NewFloat(f)
	default: // Int64, Date
		i, err := strconv.ParseInt(string(data), 10, 64)
		if err != nil {
			return fmt.Errorf("bad %s %q: %w", t, data, err)
		}
		v = minidb.Value{Kind: t, I: i}
	}
	p.vals = append(p.vals, v)
	return nil
}
