package wire

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"wsopt/internal/minidb"
)

func codecs() []Codec {
	return []Codec{XML{}, Binary{}, Gzip(XML{}), Gzip(Binary{})}
}

func sampleSchema() minidb.Schema {
	return minidb.Schema{
		{Name: "id", Type: minidb.Int64},
		{Name: "name", Type: minidb.String},
		{Name: "bal", Type: minidb.Float64},
		{Name: "d", Type: minidb.Date},
	}
}

func sampleRows(n int, rng *rand.Rand) []minidb.Row {
	out := make([]minidb.Row, n)
	for i := range out {
		row := minidb.Row{
			minidb.NewInt(rng.Int63n(1e9) - 5e8),
			minidb.NewString(randString(rng)),
			minidb.NewFloat(rng.NormFloat64() * 1000),
			minidb.NewDate(rng.Int63n(20000)),
		}
		// Sprinkle NULLs.
		if rng.Intn(5) == 0 {
			row[rng.Intn(len(row))] = minidb.Null(sampleSchema()[rng.Intn(len(row))].Type)
		}
		out[i] = row
	}
	return out
}

func randString(rng *rand.Rand) string {
	const alphabet = "abcdefghij <>&\"'λ日本語\n\t"
	n := rng.Intn(30)
	var b strings.Builder
	for i := 0; i < n; i++ {
		r := []rune(alphabet)
		b.WriteRune(r[rng.Intn(len(r))])
	}
	return b.String()
}

func rowsEqual(t *testing.T, schema minidb.Schema, a, b []minidb.Row) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("row %d arity differs", i)
		}
		for j := range a[i] {
			if a[i][j].Null != b[i][j].Null {
				t.Fatalf("row %d col %d: NULL flag differs", i, j)
			}
			if a[i][j].Null {
				continue
			}
			if c, err := minidb.Compare(a[i][j], b[i][j]); err != nil || c != 0 {
				t.Fatalf("row %d col %d (%s): %v vs %v", i, j, schema[j].Name, a[i][j], b[i][j])
			}
		}
	}
}

func TestRoundTripAllCodecs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	schema := sampleSchema()
	rows := sampleRows(200, rng)
	for _, c := range codecs() {
		var buf bytes.Buffer
		if err := c.Encode(&buf, schema, rows); err != nil {
			t.Fatalf("%s: encode: %v", c.Name(), err)
		}
		gotSchema, gotRows, err := c.Decode(&buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.Name(), err)
		}
		if len(gotSchema) != len(schema) {
			t.Fatalf("%s: schema arity differs", c.Name())
		}
		for i := range schema {
			if gotSchema[i] != schema[i] {
				t.Fatalf("%s: schema column %d differs: %v vs %v", c.Name(), i, gotSchema[i], schema[i])
			}
		}
		rowsEqual(t, schema, rows, gotRows)
	}
}

func TestEmptyBlockRoundTrip(t *testing.T) {
	schema := sampleSchema()
	for _, c := range codecs() {
		var buf bytes.Buffer
		if err := c.Encode(&buf, schema, nil); err != nil {
			t.Fatalf("%s: encode empty: %v", c.Name(), err)
		}
		gotSchema, gotRows, err := c.Decode(&buf)
		if err != nil {
			t.Fatalf("%s: decode empty: %v", c.Name(), err)
		}
		if len(gotRows) != 0 || len(gotSchema) != len(schema) {
			t.Fatalf("%s: empty block round-trip wrong", c.Name())
		}
	}
}

func TestSpecialFloats(t *testing.T) {
	schema := minidb.Schema{{Name: "f", Type: minidb.Float64}}
	rows := []minidb.Row{
		{minidb.NewFloat(math.MaxFloat64)},
		{minidb.NewFloat(math.SmallestNonzeroFloat64)},
		{minidb.NewFloat(-0.0)},
	}
	for _, c := range codecs() {
		var buf bytes.Buffer
		if err := c.Encode(&buf, schema, rows); err != nil {
			t.Fatal(err)
		}
		_, got, err := c.Decode(&buf)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if got[0][0].F != math.MaxFloat64 {
			t.Fatalf("%s: MaxFloat64 mangled to %g", c.Name(), got[0][0].F)
		}
		if got[1][0].F != math.SmallestNonzeroFloat64 {
			t.Fatalf("%s: denormal mangled", c.Name())
		}
	}
}

func TestEncodeRejectsRaggedRows(t *testing.T) {
	schema := sampleSchema()
	bad := []minidb.Row{{minidb.NewInt(1)}}
	for _, c := range codecs() {
		var buf bytes.Buffer
		if err := c.Encode(&buf, schema, bad); err == nil {
			t.Errorf("%s: ragged row accepted", c.Name())
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	for _, c := range codecs() {
		if _, _, err := c.Decode(strings.NewReader("this is not a block")); err == nil {
			t.Errorf("%s: garbage accepted", c.Name())
		}
		if _, _, err := c.Decode(strings.NewReader("")); err == nil {
			t.Errorf("%s: empty input accepted", c.Name())
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	schema := sampleSchema()
	rows := sampleRows(50, rng)
	for _, c := range codecs() {
		var buf bytes.Buffer
		if err := c.Encode(&buf, schema, rows); err != nil {
			t.Fatal(err)
		}
		full := buf.Bytes()
		trunc := full[:len(full)/2]
		if _, _, err := c.Decode(bytes.NewReader(trunc)); err == nil {
			t.Errorf("%s: truncated payload accepted", c.Name())
		}
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, _, err := (Binary{}).Decode(bytes.NewReader([]byte("XXXXrest"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"xml", "binary", "", "xml+gzip", "binary+gzip"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	// Unknown names, and +gzip more than once or around nothing: the
	// error quotes the whole name as it was given.
	for _, name := range []string{"json", "json+gzip", "carrier-pigeon", "carrier-pigeon+gzip", "xml+gzip+gzip", "binary+gzip+gzip+gzip", "+gzip", "+gzip+gzip"} {
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) accepted", name)
		} else if !strings.Contains(err.Error(), strconv.Quote(name)) {
			t.Errorf("ByName(%q): error %q does not quote the name", name, err)
		}
	}
	c, _ := ByName("binary+gzip")
	if c.Name() != "binary+gzip" {
		t.Errorf("gzipped name = %q", c.Name())
	}
}

func TestGzipActuallyCompresses(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	schema := sampleSchema()
	rows := sampleRows(500, rng)
	var plain, packed bytes.Buffer
	if err := (XML{}).Encode(&plain, schema, rows); err != nil {
		t.Fatal(err)
	}
	if err := Gzip(XML{}).Encode(&packed, schema, rows); err != nil {
		t.Fatal(err)
	}
	if packed.Len() >= plain.Len() {
		t.Fatalf("gzip produced %d bytes vs %d plain", packed.Len(), plain.Len())
	}
}

func TestContentTypes(t *testing.T) {
	if (XML{}).ContentType() != "application/xml" {
		t.Error("xml content type")
	}
	if (Binary{}).ContentType() != "application/octet-stream" {
		t.Error("binary content type")
	}
}

func TestXMLEmptyStringVsNull(t *testing.T) {
	schema := minidb.Schema{{Name: "s", Type: minidb.String}}
	rows := []minidb.Row{
		{minidb.NewString("")},
		{minidb.Null(minidb.String)},
	}
	var buf bytes.Buffer
	if err := (XML{}).Encode(&buf, schema, rows); err != nil {
		t.Fatal(err)
	}
	_, got, err := (XML{}).Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0].Null {
		t.Fatal("empty string decoded as NULL")
	}
	if !got[1][0].Null {
		t.Fatal("NULL decoded as empty string")
	}
}

func TestBinarySmallerThanXML(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	schema := sampleSchema()
	rows := sampleRows(500, rng)
	var xmlBuf, binBuf bytes.Buffer
	if err := (XML{}).Encode(&xmlBuf, schema, rows); err != nil {
		t.Fatal(err)
	}
	if err := (Binary{}).Encode(&binBuf, schema, rows); err != nil {
		t.Fatal(err)
	}
	if binBuf.Len() >= xmlBuf.Len() {
		t.Fatalf("binary (%d bytes) should beat XML (%d bytes)", binBuf.Len(), xmlBuf.Len())
	}
}

// Property: both codecs round-trip arbitrary integer/string rows.
func TestRoundTripProperty(t *testing.T) {
	schema := minidb.Schema{
		{Name: "i", Type: minidb.Int64},
		{Name: "s", Type: minidb.String},
	}
	f := func(ints []int64, strs []string) bool {
		n := len(ints)
		if len(strs) < n {
			n = len(strs)
		}
		rows := make([]minidb.Row, n)
		for i := 0; i < n; i++ {
			s := strings.ToValidUTF8(strs[i], "?")
			s = strings.Map(func(r rune) rune {
				// XML cannot carry most control characters or the
				// non-characters U+FFFE/U+FFFF (the encoder writes U+FFFD
				// for them); the service never produces them.
				if !xmlCharOK(r) {
					return '?'
				}
				return r
			}, s)
			rows[i] = minidb.Row{minidb.NewInt(ints[i]), minidb.NewString(s)}
		}
		for _, c := range codecs() {
			var buf bytes.Buffer
			if err := c.Encode(&buf, schema, rows); err != nil {
				return false
			}
			_, got, err := c.Decode(&buf)
			if err != nil || len(got) != n {
				return false
			}
			for i := range got {
				if got[i][0].I != rows[i][0].I {
					return false
				}
				want := rows[i][1].S
				if !got[i][1].Null && got[i][1].S != want {
					return false
				}
				if got[i][1].Null && want != "" {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestViewPayloadAdoptsBinaryBuffers pins ViewPayload's buffer exchange:
// a binary payload becomes the scratch's, uncopied, and the buffer the
// scratch held comes back for the caller's next payload; under gzip the
// payload inflates into the scratch and comes back itself. Either way the
// view reads the block, and a failed check still hands a buffer back.
func TestViewPayloadAdoptsBinaryBuffers(t *testing.T) {
	payload, err := (Binary{}).AppendBlock(nil, sampleSchema(), sampleRows(40, rand.New(rand.NewSource(7))))
	if err != nil {
		t.Fatal(err)
	}
	schema, rows, err := (Binary{}).Decode(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	s := new(Scratch)
	held := make([]byte, 0, 64)
	s.raw = held
	v, spare, err := ViewPayload(Binary{}, payload, s)
	if err != nil || v.Len() != len(rows) {
		t.Fatalf("binary: %d rows, err %v", v.Len(), err)
	}
	if &s.raw[0] != &payload[0] || cap(spare) != cap(held) || len(spare) != 0 {
		t.Fatal("binary: the scratch did not adopt the payload and hand back its own buffer")
	}
	sameBlock(t, "binary view of an adopted payload", schema, rows, v.Schema(), v.Rows())
	if _, spare, err = ViewPayload(Binary{}, spare, s); err == nil || cap(spare) != cap(payload) {
		t.Fatalf("an empty payload: err %v, spare of cap %d, want an error and the payload's buffer back", err, cap(spare))
	}

	var packed bytes.Buffer
	if err := Gzip(Binary{}).Encode(&packed, schema, rows); err != nil {
		t.Fatal(err)
	}
	v, spare, err = ViewPayload(Gzip(Binary{}), packed.Bytes(), s)
	if err != nil || &spare[0] != &packed.Bytes()[0] {
		t.Fatalf("gzip: err %v, or the payload was not handed back", err)
	}
	sameBlock(t, "gzip view", schema, rows, v.Schema(), v.Rows())
}
