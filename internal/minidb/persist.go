package minidb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Disk persistence for catalogs: each table is stored as one file
// "<name>.tbl" with a small binary header (magic, schema) followed by the
// rows in the same length-prefixed encoding the binary wire codec uses.
// Generating TPC-H data takes seconds; loading it back takes milliseconds,
// so wsblockd restarts do not regenerate.

var persistMagic = [8]byte{'W', 'S', 'T', 'B', 'L', '0', '0', '1'}

// tableExt is the on-disk file extension for tables.
const tableExt = ".tbl"

// SaveTable writes the table to w.
func SaveTable(w io.Writer, t *Table) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(persistMagic[:]); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	putString := func(s string) error {
		if err := putUvarint(uint64(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	if err := putString(t.Name()); err != nil {
		return err
	}
	schema := t.Schema()
	if err := putUvarint(uint64(len(schema))); err != nil {
		return err
	}
	for _, c := range schema {
		if err := putString(c.Name); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(c.Type)); err != nil {
			return err
		}
	}
	if err := putUvarint(uint64(t.RowCount())); err != nil {
		return err
	}
	it := t.Scan()
	for {
		r, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for j, v := range r {
			flag := byte(0)
			if v.Null {
				flag = 1
			}
			if err := bw.WriteByte(flag); err != nil {
				return err
			}
			if v.Null {
				continue
			}
			switch schema[j].Type {
			case Int64, Date:
				n := binary.PutVarint(scratch[:], v.I)
				if _, err := bw.Write(scratch[:n]); err != nil {
					return err
				}
			case Float64:
				var buf [8]byte
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.F))
				if _, err := bw.Write(buf[:]); err != nil {
					return err
				}
			case String:
				if err := putString(v.S); err != nil {
					return err
				}
			default:
				return fmt.Errorf("minidb: cannot persist type %v", schema[j].Type)
			}
		}
	}
	return bw.Flush()
}

// LoadTable reads a table previously written by SaveTable.
func LoadTable(r io.Reader) (*Table, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("minidb: load table: %w", err)
	}
	if magic != persistMagic {
		return nil, errors.New("minidb: not a table file (bad magic)")
	}
	// readString appends the next length-prefixed string to b.
	readString := func(b []byte, what string, max uint64) ([]byte, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("minidb: load %s length: %w", what, err)
		}
		if n > max {
			return nil, fmt.Errorf("minidb: load %s: length %d over its bound %d", what, n, max)
		}
		b = slices.Grow(b, int(n))
		if _, err := io.ReadFull(br, b[len(b):len(b)+int(n)]); err != nil {
			return nil, fmt.Errorf("minidb: load %s: %w", what, err)
		}
		return b[:len(b)+int(n)], nil
	}
	getString := func(what string, max uint64) (string, error) {
		b, err := readString(nil, what, max)
		return string(b), err
	}
	name, err := getString("table name", 4096)
	if err != nil {
		return nil, err
	}
	ncols, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("minidb: load column count: %w", err)
	}
	if ncols == 0 || ncols > 4096 {
		return nil, fmt.Errorf("minidb: load column count: %d, want 1 to 4096", ncols)
	}
	schema := make(Schema, ncols)
	for i := range schema {
		cn, err := getString("column name", 4096)
		if err != nil {
			return nil, err
		}
		tb, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("minidb: load column type: %w", err)
		}
		t := Type(tb)
		if t < Int64 || t > Date {
			return nil, fmt.Errorf("minidb: bad column type byte %d", tb)
		}
		schema[i] = Column{Name: cn, Type: t}
	}
	tbl, err := NewTable(name, schema)
	if err != nil {
		return nil, err
	}
	nrows, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("minidb: load row count: %w", err)
	}
	b := NewBatch(tbl, int(min(nrows, math.MaxInt)))
	var f64 [8]byte // out of the loop: io.ReadFull moves it to the heap
	for i := uint64(0); i < nrows; i++ {
		row := b.Row()
		for j := range row {
			flag, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("minidb: load row %d: %w", i, err)
			}
			if flag == 1 {
				row[j] = Null(schema[j].Type)
				continue
			}
			if flag != 0 {
				return nil, fmt.Errorf("minidb: bad null flag %d in row %d", flag, i)
			}
			switch schema[j].Type {
			case Int64:
				v, err := binary.ReadVarint(br)
				if err != nil {
					return nil, fmt.Errorf("minidb: load int at row %d: %w", i, err)
				}
				row[j] = NewInt(v)
			case Date:
				v, err := binary.ReadVarint(br)
				if err != nil {
					return nil, fmt.Errorf("minidb: load date at row %d: %w", i, err)
				}
				row[j] = NewDate(v)
			case Float64:
				if _, err := io.ReadFull(br, f64[:]); err != nil {
					return nil, fmt.Errorf("minidb: load float at row %d: %w", i, err)
				}
				row[j] = NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(f64[:])))
			case String:
				text, err := readString(b.Text(), "string value", 1<<30)
				if err != nil {
					return nil, err
				}
				b.SetText(j, text)
			}
		}
		if err := b.EndRow(); err != nil {
			return nil, err
		}
	}
	if err := b.Flush(); err != nil {
		return nil, err
	}
	return tbl, nil
}

// SaveCatalog writes every table of the catalog into dir, one
// "<table>.tbl" file each, creating dir if needed. Writes go through a
// temporary file and an atomic rename, so a crash never leaves a
// half-written table behind.
func SaveCatalog(dir string, c *Catalog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range c.Names() {
		t, err := c.Table(name)
		if err != nil {
			return err
		}
		final := filepath.Join(dir, name+tableExt)
		tmp, err := os.CreateTemp(dir, name+".tmp*")
		if err != nil {
			return err
		}
		err = SaveTable(tmp, t)
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(tmp.Name())
			return fmt.Errorf("minidb: save %s: %w", name, err)
		}
		if err := os.Rename(tmp.Name(), final); err != nil {
			os.Remove(tmp.Name())
			return err
		}
	}
	return nil
}

// LoadCatalog reads every "<table>.tbl" file in dir into a fresh catalog.
func LoadCatalog(dir string) (*Catalog, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	cat := NewCatalog()
	loaded := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), tableExt) {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		tbl, err := LoadTable(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("minidb: load %s: %w", e.Name(), err)
		}
		if err := cat.adopt(tbl); err != nil {
			return nil, err
		}
		loaded++
	}
	if loaded == 0 {
		return nil, fmt.Errorf("minidb: no %s files in %s", tableExt, dir)
	}
	return cat, nil
}

// adopt registers an existing table under its own name.
func (c *Catalog) adopt(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.tables[t.Name()]; exists {
		return fmt.Errorf("minidb: table %q already exists", t.Name())
	}
	c.tables[t.Name()] = t
	return nil
}
