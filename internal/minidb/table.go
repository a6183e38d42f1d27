package minidb

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Table is an in-memory heap relation. Reads (Scan) may run concurrently
// with each other; writes are serialized with reads by a RWMutex.
type Table struct {
	name   string
	schema Schema

	mu   sync.RWMutex
	rows []Row
}

// NewTable creates an empty table. The schema must have at least one
// column with a unique name.
func NewTable(name string, schema Schema) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("minidb: table name must not be empty")
	}
	if len(schema) == 0 {
		return nil, fmt.Errorf("minidb: table %q needs at least one column", name)
	}
	seen := make(map[string]bool, len(schema))
	for _, c := range schema {
		if c.Name == "" {
			return nil, fmt.Errorf("minidb: table %q has an unnamed column", name)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("minidb: table %q has duplicate column %q", name, c.Name)
		}
		seen[c.Name] = true
	}
	return &Table{name: name, schema: schema}, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// RowCount returns the number of stored rows.
func (t *Table) RowCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Insert validates and appends one row.
func (t *Table) Insert(r Row) error {
	if err := t.schema.Validate(r); err != nil {
		return err
	}
	t.mu.Lock()
	t.rows = append(t.rows, r)
	t.mu.Unlock()
	return nil
}

// BulkLoad validates and appends many rows in one lock acquisition,
// the path the data generators use. On the first invalid row nothing is
// appended.
func (t *Table) BulkLoad(rows []Row) error {
	for i, r := range rows {
		if err := t.schema.Validate(r); err != nil {
			return fmt.Errorf("minidb: bulk load row %d: %w", i, err)
		}
	}
	t.mu.Lock()
	t.rows = append(t.rows, rows...)
	t.mu.Unlock()
	return nil
}

// Scan returns an iterator over a stable snapshot of the table's rows.
// The snapshot shares row storage with the table; rows must be treated as
// immutable.
func (t *Table) Scan() Iterator {
	t.mu.RLock()
	snapshot := t.rows
	t.mu.RUnlock()
	return &sliceIter{rows: snapshot, schema: t.schema}
}

// Catalog names tables. Safe for concurrent use.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	// version counts dataset mutations (DDL and bulk loads). Consumers
	// that cache derived artifacts — the service's encoded-block cache —
	// capture it as an epoch: any write bumps it, so stale cache keys can
	// never be derived again.
	version atomic.Uint64
}

// Version returns the catalog's dataset version, bumped on every DDL
// change and on every BumpVersion call (the service calls it after each
// online bulk load).
func (c *Catalog) Version() uint64 { return c.version.Load() }

// BumpVersion records a dataset mutation that happened outside the
// catalog's own methods (e.g. rows appended to an existing table).
func (c *Catalog) BumpVersion() { c.version.Add(1) }

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// CreateTable creates and registers a new empty table.
func (c *Catalog) CreateTable(name string, schema Schema) (*Table, error) {
	t, err := NewTable(name, schema)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.tables[name]; exists {
		return nil, fmt.Errorf("minidb: table %q already exists", name)
	}
	c.tables[name] = t
	c.version.Add(1)
	return t, nil
}

// Table looks a table up by name.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("minidb: no such table %q", name)
	}
	return t, nil
}

// Names lists the registered tables in sorted order.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
