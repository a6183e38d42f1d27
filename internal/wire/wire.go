// Package wire serializes blocks of tuples for transport between the web
// service and the client. Codecs:
//
//   - an XML codec that wraps a WebRowSet-style rowset in a SOAP-like
//     envelope — the realistic default. It carries the paper's encoding
//     overheads where they are inherent: ~5x the bytes of the binary
//     codec, every value rendered and re-parsed as text, and (as
//     xml+gzip) the deflate that buys the bytes back. It no longer
//     carries a reflective parse: both directions are hand-written for
//     the one rowset grammar (xml.go, xmldecode.go);
//   - a compact length-prefixed binary codec, the ablation baseline for
//     quantifying that overhead (BenchmarkCodecRoundTrip);
//   - any of them under gzip ("+gzip"): encoded as one standard gzip
//     member whose 64 KiB pieces are deflated on idle cores, decoded
//     with the stream's trailer verified and a cap on what a block may
//     inflate to.
//
// All codecs round-trip schema and rows exactly, including NULLs. XML
// and binary decode into a reusable Scratch (scratch.go); ViewBlock
// checks and indexes a binary block, building its rows only on demand.
package wire

import (
	"fmt"
	"io"
	"strings"

	"wsopt/internal/minidb"
)

// Codec encodes and decodes one block of tuples.
type Codec interface {
	// Name identifies the codec in configuration and reports.
	Name() string
	// ContentType is the HTTP content type of the encoding.
	ContentType() string
	// Encode writes schema and rows to w.
	Encode(w io.Writer, schema minidb.Schema, rows []minidb.Row) error
	// Decode reads one block back.
	Decode(r io.Reader) (minidb.Schema, []minidb.Row, error)
}

// ByName returns the codec registered under name: "xml" (default),
// "binary", or either with one "+gzip" suffix. A second suffix is
// refused: it would deflate every block twice, and the block cache's
// fingerprint reads only the outer level.
func ByName(name string) (Codec, error) {
	base, gzipped := strings.CutSuffix(name, "+gzip")
	var c Codec
	switch {
	case base == "xml", name == "":
		c = XML{}
	case base == "binary":
		c = Binary{}
	case strings.HasSuffix(base, "+gzip"):
		return nil, fmt.Errorf("wire: codec %q: +gzip may be given once", name)
	default:
		return nil, fmt.Errorf("wire: unknown codec %q", name)
	}
	if gzipped {
		return Gzip(c), nil
	}
	return c, nil
}

// typeName renders a minidb type for the wire.
func typeName(t minidb.Type) string { return t.String() }

// parseTypeName parses a wire type name.
func parseTypeName(s string) (minidb.Type, error) {
	switch s {
	case "INT64":
		return minidb.Int64, nil
	case "FLOAT64":
		return minidb.Float64, nil
	case "STRING":
		return minidb.String, nil
	case "DATE":
		return minidb.Date, nil
	default:
		return 0, fmt.Errorf("wire: unknown column type %q", s)
	}
}
