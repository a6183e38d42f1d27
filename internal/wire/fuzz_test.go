package wire

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"wsopt/internal/minidb"
)

// Fuzz targets hardening the decoders against corrupt or hostile
// payloads: whatever the bytes, Decode must return an error or a valid
// block, never panic or over-allocate. The scratch (arena) decode path
// and the view (ViewBlock) are fuzzed differentially against the plain
// path, the binary and XML decoders against independent references, and
// retained cells are re-checked after the scratch is reused — a decoded
// value must never alias memory a later decode recycles.

func fuzzSeed(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	schema := sampleSchema()
	rows := sampleRows(20, rng)
	for _, c := range []Codec{XML{}, Binary{}, Gzip(Binary{})} {
		var buf bytes.Buffer
		if err := c.Encode(&buf, schema, rows); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte("WSB1"))
	f.Add([]byte(`{"columns":[{"name":"x","type":"INT64"}],"rows":[["1"]]}`)) // a foreign format
	f.Add([]byte("<Envelope><Body><rowset></rowset></Body></Envelope>"))
	for _, doc := range xmlSpellings {
		f.Add([]byte(doc.xml))
	}
	for _, doc := range xmlRejected {
		f.Add([]byte(doc.xml))
	}
	// Cell bombs: few bytes per cell, so the byte caps bound nothing (see
	// Scratch.MaxCells and limit_test.go). Packed too, so that the gzip
	// targets reach the decoder behind the inflater with them.
	for _, bomb := range cellBombs(2000) {
		f.Add(bomb.body)
		var packed bytes.Buffer
		zw := gzip.NewWriter(&packed)
		zw.Write(bomb.body)
		zw.Close()
		f.Add(packed.Bytes())
	}

	// Arena-path nasties: zero-length strings and NULL-heavy rows stress
	// the arena slicing (cells of length 0, cells skipped entirely),
	// and corrupted length prefixes probe the decoder's plausibility
	// bounds before it sizes any buffer.
	nastySchema := minidb.Schema{
		{Name: "a", Type: minidb.String},
		{Name: "b", Type: minidb.String},
		{Name: "n", Type: minidb.Int64},
	}
	nastyRows := make([]minidb.Row, 30)
	for i := range nastyRows {
		row := minidb.Row{minidb.NewString(""), minidb.NewString("x"), minidb.NewInt(int64(i))}
		switch i % 3 {
		case 0:
			row[0] = minidb.Null(minidb.String)
			row[1] = minidb.NewString("")
		case 1:
			row[1] = minidb.Null(minidb.String)
			row[2] = minidb.Null(minidb.Int64)
		}
		nastyRows[i] = row
	}
	for _, c := range []Codec{XML{}, Binary{}, Gzip(XML{})} {
		var buf bytes.Buffer
		if err := c.Encode(&buf, nastySchema, nastyRows); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		// Corrupt the length-prefix region right after the binary magic
		// (a huge varint), and a prefix somewhere mid-payload.
		if _, ok := c.(Binary); ok {
			raw := buf.Bytes()
			headCorrupt := append([]byte(nil), raw...)
			for i := 4; i < 13 && i < len(headCorrupt); i++ {
				headCorrupt[i] = 0xff
			}
			f.Add(headCorrupt)
			midCorrupt := append([]byte(nil), raw...)
			midCorrupt[len(midCorrupt)/2] ^= 0xff
			f.Add(midCorrupt)
		}
	}
	// A binary block one byte short and one byte long, which the exact
	// reference rejects too.
	var whole bytes.Buffer
	if err := (Binary{}).Encode(&whole, nastySchema, nastyRows); err != nil {
		f.Fatal(err)
	}
	f.Add(whole.Bytes()[:whole.Len()-1])
	f.Add(append(whole.Bytes(), 0))

	// A value cell whose flag byte is neither 0 nor 1: a decoder that
	// dropped the flag check would read the int behind it and accept the
	// block, which the reference rejects.
	flagged, err := (Binary{}).AppendBlock(nil, minidb.Schema{{Name: "n", Type: minidb.Int64}}, []minidb.Row{{minidb.NewInt(7)}})
	if err != nil {
		f.Fatal(err)
	}
	flagged[len(flagged)-2] = 2
	f.Add(flagged)
}

// retainRows makes the retention copy the Block contract promises is
// sufficient: fresh row and value slices (the scratch recycles its
// backing arrays on the next decode) with shallow Value copies — string
// cells keep pointing at the block's arena, which must be immutable.
func retainRows(rows []minidb.Row) []minidb.Row {
	out := make([]minidb.Row, len(rows))
	for i, r := range rows {
		out[i] = append(minidb.Row(nil), r...)
	}
	return out
}

func sameValue(a, b minidb.Value) bool {
	if a.Kind != b.Kind || a.Null != b.Null {
		return false
	}
	if a.Null {
		return true
	}
	return a.I == b.I && a.S == b.S &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

func sameBlock(t *testing.T, label string, wantSchema minidb.Schema, want []minidb.Row, gotSchema minidb.Schema, got []minidb.Row) {
	t.Helper()
	if len(gotSchema) != len(wantSchema) {
		t.Fatalf("%s: schema arity %d != %d", label, len(gotSchema), len(wantSchema))
	}
	for i := range wantSchema {
		if gotSchema[i] != wantSchema[i] {
			t.Fatalf("%s: schema col %d: %v != %v", label, i, gotSchema[i], wantSchema[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows != %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d arity differs", label, i)
		}
		for j := range want[i] {
			if !sameValue(got[i][j], want[i][j]) {
				t.Fatalf("%s: row %d col %d: %+v != %+v", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// poisonScratch decodes an unrelated all-strings block into the scratch,
// overwriting its reused buffers. Any retained cell that aliased scratch
// memory (rather than the immutable arena) is corrupted by this.
func poisonScratch(t *testing.T, codec Codec, s *Scratch) {
	schema := minidb.Schema{{Name: "p", Type: minidb.String}, {Name: "q", Type: minidb.String}}
	rows := make([]minidb.Row, 40)
	filler := minidb.NewString("ZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZZ")
	for i := range rows {
		rows[i] = minidb.Row{filler, filler}
	}
	var buf bytes.Buffer
	if err := codec.Encode(&buf, schema, rows); err != nil {
		t.Fatalf("poison encode: %v", err)
	}
	if _, _, err := DecodeBlock(codec, &buf, s); err != nil {
		t.Fatalf("poison decode: %v", err)
	}
}

func fuzzDecode(f *testing.F, codec Codec) {
	fuzzSeed(f)
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, codec, data) })
}

// checkDecode is the property every decoder must hold on any input.
func checkDecode(t *testing.T, codec Codec, data []byte) {
	t.Helper()
	schema, rows, err := codec.Decode(bytes.NewReader(data))

	// Differential: the scratch path must accept exactly the inputs
	// the plain path accepts, and produce the same block.
	scratch := new(Scratch)
	sSchema, sRows, sErr := DecodeBlock(codec, bytes.NewReader(data), scratch)
	if (err == nil) != (sErr == nil) {
		t.Fatalf("plain/scratch disagree on validity: plain=%v scratch=%v", err, sErr)
	}

	// The view: ViewBlock (an index pass, rows built on demand, where the
	// codec has one) accepts exactly what the plain path accepts, and its
	// rows are the same block.
	view, vErr := ViewBlock(codec, bytes.NewReader(data), new(Scratch))
	if (err == nil) != (vErr == nil) {
		t.Fatalf("plain/view disagree on validity: plain=%v view=%v", err, vErr)
	}

	// Oracle: a decoder written apart from the one under test (see
	// referenceDecoder) accepts whatever it accepts — for an exact one,
	// only that — and never reads a block differently.
	if ref, exact := referenceDecoder(codec); ref != nil {
		rSchema, rRows, rErr := ref(bytes.NewReader(data))
		switch {
		case err == nil && rErr != nil:
			t.Fatalf("accepted a block the reference rejects: %v\n%q", rErr, data)
		case err != nil && rErr == nil && exact:
			t.Fatalf("rejected a block the reference accepts: %v\n%q", err, data)
		case err == nil:
			sameBlock(t, "decoder vs reference", rSchema, rRows, schema, rows)
		}
	}
	if err != nil {
		return
	}
	sameBlock(t, "scratch vs plain", schema, rows, sSchema, sRows)
	if view.Len() != len(rows) {
		t.Fatalf("view of %d rows, plain decoded %d", view.Len(), len(rows))
	}
	sameBlock(t, "view vs plain", schema, rows, view.Schema(), view.Rows())

	// A successful decode must be internally consistent and must
	// re-encode cleanly.
	for i, r := range rows {
		if len(r) != len(schema) {
			t.Fatalf("row %d arity %d != schema %d", i, len(r), len(schema))
		}
	}
	var buf bytes.Buffer
	if err := codec.Encode(&buf, schema, rows); err != nil {
		t.Fatalf("re-encode of a decoded block failed: %v", err)
	}

	// Retention: shallow-copied cells must survive scratch reuse —
	// string values decoded through the arena path may never alias
	// memory a later decode overwrites.
	retainedSchema := append(minidb.Schema(nil), sSchema...)
	retained := retainRows(sRows)
	poisonScratch(t, codec, scratch)
	sameBlock(t, "retained after scratch reuse", schema, rows, retainedSchema, retained)

	// Schema cache: the poison block left another schema cached; the
	// same scratch must decode this block to the same result again.
	sSchema, sRows, sErr = DecodeBlock(codec, bytes.NewReader(data), scratch)
	if sErr != nil {
		t.Fatalf("re-decode into a reused scratch: %v", sErr)
	}
	sameBlock(t, "reused scratch vs plain", schema, rows, sSchema, sRows)

	// Cell limit: a limit the block fits decodes it unchanged, a limit a
	// whole row short refuses it with the typed error. (A row of a
	// zero-column schema counts as one cell; XML checks per row, so one
	// cell short is not yet a refusal.)
	n := max(len(rows)*len(schema), len(rows))
	if n == 0 {
		return
	}
	lSchema, lRows, lErr := DecodeBlock(codec, bytes.NewReader(data), &Scratch{MaxCells: n})
	if lErr != nil {
		t.Fatalf("%d cells under MaxCells %d: %v", n, n, lErr)
	}
	sameBlock(t, "decode under a limit it fits", schema, rows, lSchema, lRows)
	if short := n - max(len(schema), 1); short > 0 {
		if _, _, err := DecodeBlock(codec, bytes.NewReader(data), &Scratch{MaxCells: short}); !errors.Is(err, ErrTooManyCells) {
			t.Fatalf("%d cells under MaxCells %d: err = %v, want ErrTooManyCells", n, short, err)
		}
	}
}

func FuzzBinaryDecode(f *testing.F) { fuzzDecode(f, Binary{}) }

func FuzzXMLDecode(f *testing.F) { fuzzDecode(f, XML{}) }

// FuzzGzipBinaryDecode runs the differential + retention fuzz through
// the pooled-gzip wrapper around the arena decoder, so the inflate path
// and reader pooling see hostile inputs too.
func FuzzGzipBinaryDecode(f *testing.F) { fuzzDecode(f, Gzip(Binary{})) }

// FuzzGzipXMLDecode does the same for the paper's SOAP path. On top of
// the shared seeds (not gzip: refused at the header) it is seeded with
// members the inflater accepts, so mutation starts at the hand-written
// parser behind it: the parser's spelling and rejection tables packed by
// compress/gzip, and a block of two pieces from the encoder itself.
func FuzzGzipXMLDecode(f *testing.F) {
	pack := func(doc string) []byte {
		var packed bytes.Buffer
		zw := gzip.NewWriter(&packed)
		zw.Write([]byte(doc))
		zw.Close()
		return packed.Bytes()
	}
	for _, doc := range xmlSpellings {
		f.Add(pack(doc.xml))
	}
	for _, doc := range xmlRejected {
		f.Add(pack(doc.xml))
	}
	var buf bytes.Buffer
	if err := Gzip(XML{}).Encode(&buf, sampleSchema(), sampleRows(800, rand.New(rand.NewSource(1)))); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	fuzzDecode(f, Gzip(XML{}))
}

// FuzzGzipEncodeDifferential fuzzes the encode side: blocks of arbitrary
// row count, width, NULL density and cell length, sized to cross none to
// a handful of piece boundaries, under every inner codec and level. The
// output must be the bytes of pigzLayout — the kernel's specification
// built from stdlib parts — and compress/gzip must inflate it to the
// inner codec's bytes.
func FuzzGzipEncodeDifferential(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(1), uint8(0), uint8(0), uint8(0), int8(0))     // empty block
	f.Add(int64(2), uint16(200), uint8(4), uint8(10), uint8(20), uint8(0), int8(6)) // one piece
	f.Add(int64(3), uint16(700), uint8(8), uint8(3), uint8(12), uint8(0), int8(1))  // xml, one boundary
	f.Add(int64(4), uint16(1500), uint8(6), uint8(0), uint8(30), uint8(1), int8(9)) // binary
	f.Add(int64(5), uint16(2000), uint8(8), uint8(50), uint8(40), uint8(2), int8(-2))
	f.Add(int64(6), uint16(1999), uint8(7), uint8(0), uint8(31), uint8(0), int8(-1)) // about the most bytes it makes
	f.Fuzz(func(t *testing.T, seed int64, nRows uint16, width, nullEvery, maxLen, codec uint8, level int8) {
		rng := rand.New(rand.NewSource(seed))
		types := []minidb.Type{minidb.Int64, minidb.String, minidb.Float64, minidb.Date}
		schema := make(minidb.Schema, 1+int(width)%8)
		for i := range schema {
			schema[i] = minidb.Column{Name: "c" + string(rune('a'+i)), Type: types[rng.Intn(len(types))]}
		}
		rows := make([]minidb.Row, int(nRows)%2000)
		for i := range rows {
			row := make(minidb.Row, len(schema))
			for j, col := range schema {
				switch {
				case nullEvery > 0 && rng.Intn(int(nullEvery)) == 0:
					row[j] = minidb.Null(col.Type)
				case col.Type == minidb.String:
					const alphabet = "abcdefghij <>&\"'\n\t"
					cell := make([]byte, rng.Intn(int(maxLen)%32+1))
					for k := range cell {
						cell[k] = alphabet[rng.Intn(len(alphabet))]
					}
					row[j] = minidb.NewString(string(cell))
				case col.Type == minidb.Float64:
					row[j] = minidb.NewFloat(rng.NormFloat64() * 1e6)
				case col.Type == minidb.Date:
					row[j] = minidb.NewDate(rng.Int63n(20000))
				default:
					row[j] = minidb.NewInt(rng.Int63() - rng.Int63())
				}
			}
			rows[i] = row
		}
		g := Gzipped{Inner: []Codec{XML{}, Binary{}}[int(codec)%2], Level: (int(level)%12+12)%12 - 2}
		inner := innerBytes(t, g.Inner, schema, rows)
		var out bytes.Buffer
		if err := g.Encode(&out, schema, rows); err != nil {
			t.Fatal(err)
		}
		if want := pigzLayout(t, inner, g.Level); !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("%s level %d, %d inner bytes: %d bytes written, the layout has %d", g.Name(), g.Level, len(inner), out.Len(), len(want))
		}
		zr, err := gzip.NewReader(&out)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := io.ReadAll(zr); err != nil || !bytes.Equal(got, inner) {
			t.Fatalf("%s level %d, %d inner bytes: stdlib inflates %d bytes, err %v", g.Name(), g.Level, len(inner), len(got), err)
		}
	})
}
