package wire

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"wsopt/internal/minidb"
)

// cellBomb is a body of few bytes per cell: inside any byte cap it
// decodes to many times its size unless the cells are bounded while
// decoding.
type cellBomb struct {
	name  string
	codec Codec
	body  []byte
	cells int
}

// cellBombs builds, per codec, bodies of about n cells at the smallest
// spelling the decoder accepts (or, for the last two, materialises before
// it refuses).
func cellBombs(n int) []cellBomb {
	bin := append([]byte(nil), binaryMagic[:]...)
	bin = binary.AppendUvarint(bin, 1) // one column
	bin = binary.AppendUvarint(bin, 1)
	bin = append(bin, 'c', byte(minidb.Int64))
	bin = binary.AppendUvarint(bin, uint64(n))
	bin = append(bin, bytes.Repeat([]byte{flagNull}, n)...)
	const jsonCols = `{"columns":[{"name":"c","type":"INT64"}],"rows":[`
	return []cellBomb{
		{"xml <v/>", XML{}, []byte(`<Envelope><Body><rowset><metadata><column name="a" type="INT64"/><column name="b" type="STRING"/></metadata><rows>` +
			strings.Repeat(`<row><v/><v/></row>`, n/2) + `</rows></rowset></Body></Envelope>`), n},
		{"xml <row/> of no columns", XML{}, []byte(`<Envelope><Body><rowset><metadata/><rows>` +
			strings.Repeat(`<row/>`, n) + `</rows></rowset></Body></Envelope>`), n},
		{"binary nulls", Binary{}, bin, n},
		{"json nulls", JSON{}, []byte(jsonCols + strings.Repeat(`[null],`, n-1) + `[null]]}`), n},
		{"json empty rows", JSON{}, []byte(jsonCols + strings.Repeat(`[],`, n-1) + `[]]}`), n},
		{"json empty columns", JSON{}, []byte(`{"columns":[` + strings.Repeat(`{},`, n-1) + `{}],"rows":[]}`), n},
	}
}

// TestDecodeCellLimit: a decode into a Scratch with MaxCells accepts what
// fits, refuses one row more with the typed error — for every codec, bare
// and under gzip — and a zero MaxCells bounds nothing.
func TestDecodeCellLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	schema := sampleSchema()
	rows := sampleRows(50, rng)
	cells := len(rows) * len(schema)
	for _, c := range []Codec{XML{}, JSON{}, Binary{}, Gzip(XML{}), Gzip(JSON{}), Gzip(Binary{})} {
		var buf bytes.Buffer
		if err := c.Encode(&buf, schema, rows); err != nil {
			t.Fatal(err)
		}
		wantSchema, want, err := c.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			maxCells int
			refused  bool
		}{{0, false}, {cells, false}, {cells + 1, false}, {cells - len(schema), true}, {1, true}} {
			gotSchema, got, err := DecodeBlock(c, bytes.NewReader(buf.Bytes()), &Scratch{MaxCells: tc.maxCells})
			switch {
			case tc.refused && !errors.Is(err, ErrTooManyCells):
				t.Errorf("%s: %d cells under MaxCells %d: err = %v, want ErrTooManyCells", c.Name(), cells, tc.maxCells, err)
			case !tc.refused && err != nil:
				t.Errorf("%s: %d cells under MaxCells %d: %v", c.Name(), cells, tc.maxCells, err)
			case !tc.refused:
				sameBlock(t, c.Name(), wantSchema, want, gotSchema, got)
			}
		}
	}
}

// TestDecodeCellLimitRefusesBeforeAllocating is the hardening claim: a
// cell bomb under a limit is refused without allocating for its cells.
// The scratch's read buffer is sized up front, so that what is measured is
// the decode and not the buffering of the body (which every decode pays);
// the same body without a limit costs its cells dozens of bytes each.
func TestDecodeCellLimitRefusesBeforeAllocating(t *testing.T) {
	const cells = 400_000
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, bomb := range cellBombs(cells) {
		for _, c := range []Codec{bomb.codec, Gzip(bomb.codec)} {
			body := bomb.body
			if _, gz := c.(Gzipped); gz {
				var packed bytes.Buffer
				zw := gzip.NewWriter(&packed)
				zw.Write(bomb.body)
				zw.Close()
				body = packed.Bytes()
			}
			s := &Scratch{MaxCells: 1000, raw: make([]byte, 0, len(bomb.body)+1)}
			var err error
			got := allocated(func() { _, _, err = DecodeBlock(c, bytes.NewReader(body), s) })
			if !errors.Is(err, ErrTooManyCells) {
				t.Errorf("%s via %s: err = %v, want ErrTooManyCells", bomb.name, c.Name(), err)
			}
			// 1000 cells of 48 bytes, append's doubling, a gzip reader.
			if got > 512<<10 {
				t.Errorf("%s via %s: refusing %d cells allocated %d bytes", bomb.name, c.Name(), bomb.cells, got)
			}
		}
	}
	// The control: unbounded, the <v/> bomb really does cost its cells.
	bomb := cellBombs(cells)[0]
	s := &Scratch{raw: make([]byte, 0, len(bomb.body)+1)}
	if got := allocated(func() { DecodeBlock(bomb.codec, bytes.NewReader(bomb.body), s) }); got < cells*40 {
		t.Errorf("unbounded decode of %s allocated only %d bytes: the bomb is not one", bomb.name, got)
	}
}

// TestJSONArrayElemsExact: on documents the JSON decoder accepts, the
// byte-level count the limit is checked on equals what was decoded; on
// hostile nesting it gives up instead of miscounting.
func TestJSONArrayElemsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		ncols, nrows := 1+rng.Intn(5), rng.Intn(20)
		schema := make(minidb.Schema, ncols)
		for j := range schema {
			schema[j] = minidb.Column{Name: fmt.Sprintf(`c"%d,[`, j), Type: minidb.String}
		}
		rows := make([]minidb.Row, nrows)
		for r := range rows {
			rows[r] = make(minidb.Row, ncols)
			for j := range rows[r] {
				rows[r][j] = minidb.NewString([]string{"", `a,b`, `]["\`, "x\\", "[[,,]]"}[rng.Intn(5)])
				if rng.Intn(4) == 0 {
					rows[r][j] = minidb.Null(minidb.String)
				}
			}
		}
		var buf bytes.Buffer
		if err := (JSON{}).Encode(&buf, schema, rows); err != nil {
			t.Fatal(err)
		}
		// Respell with whitespace the way a foreign encoder might.
		var spaced bytes.Buffer
		if err := json.Indent(&spaced, buf.Bytes(), "", "\t"); err != nil {
			t.Fatal(err)
		}
		for _, doc := range [][]byte{buf.Bytes(), spaced.Bytes()} {
			outer, inner, ok := jsonArrayElems(doc)
			if !ok || outer != ncols+nrows || inner != ncols*nrows {
				t.Fatalf("jsonArrayElems = %d outer, %d inner, ok %v; want %d, %d on\n%s", outer, inner, ok, ncols+nrows, ncols*nrows, doc)
			}
		}
	}
	if _, _, ok := jsonArrayElems([]byte(strings.Repeat("[", 9))); ok {
		t.Error("nine containers deep counted as a rowset")
	}
	if _, _, ok := jsonArrayElems([]byte("]")); ok {
		t.Error("a closer without an opener counted")
	}
}
