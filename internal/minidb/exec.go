package minidb

import (
	"fmt"
	"io"
)

// Iterator streams rows in volcano style. Implementations are not safe
// for concurrent use.
type Iterator interface {
	// Next returns the next row, or io.EOF when the stream is exhausted.
	Next() (Row, error)
	// Schema describes the rows the iterator produces.
	Schema() Schema
}

// sliceIter iterates over an in-memory row slice (the base table scan).
type sliceIter struct {
	rows   []Row
	pos    int
	schema Schema
}

// Next implements Iterator.
func (it *sliceIter) Next() (Row, error) {
	if it.pos >= len(it.rows) {
		return nil, io.EOF
	}
	r := it.rows[it.pos]
	it.pos++
	return r, nil
}

// Schema implements Iterator.
func (it *sliceIter) Schema() Schema { return it.schema }

// projectIter applies a column projection.
type projectIter struct {
	in     Iterator
	idx    []int
	schema Schema
}

// Project wraps in with a projection onto the named columns; an empty
// list keeps all columns.
func Project(in Iterator, columns []string) (Iterator, error) {
	sub, idx, err := in.Schema().Project(columns)
	if err != nil {
		return nil, err
	}
	return &projectIter{in: in, idx: idx, schema: sub}, nil
}

// Next implements Iterator.
func (it *projectIter) Next() (Row, error) {
	r, err := it.in.Next()
	if err != nil {
		return nil, err
	}
	out := make(Row, len(it.idx))
	for i, j := range it.idx {
		out[i] = r[j]
	}
	return out, nil
}

// Schema implements Iterator.
func (it *projectIter) Schema() Schema { return it.schema }

// filterIter keeps rows for which the predicate evaluates to true.
type filterIter struct {
	in   Iterator
	pred Expr
}

// Filter wraps in with the predicate pred.
func Filter(in Iterator, pred Expr) Iterator {
	return &filterIter{in: in, pred: pred}
}

// Next implements Iterator.
func (it *filterIter) Next() (Row, error) {
	for {
		r, err := it.in.Next()
		if err != nil {
			return nil, err
		}
		keep, err := evalBool(it.pred, r, it.in.Schema())
		if err != nil {
			return nil, err
		}
		if keep {
			return r, nil
		}
	}
}

// Schema implements Iterator.
func (it *filterIter) Schema() Schema { return it.in.Schema() }

// limitIter stops after n rows.
type limitIter struct {
	in   Iterator
	n    int
	seen int
}

// Limit wraps in, emitting at most n rows.
func Limit(in Iterator, n int) Iterator {
	return &limitIter{in: in, n: n}
}

// Next implements Iterator.
func (it *limitIter) Next() (Row, error) {
	if it.seen >= it.n {
		return nil, io.EOF
	}
	r, err := it.in.Next()
	if err != nil {
		return nil, err
	}
	it.seen++
	return r, nil
}

// Schema implements Iterator.
func (it *limitIter) Schema() Schema { return it.in.Schema() }

// Query describes a scan-project-filter(-limit) plan over one table — the
// shape of every workload in the paper's evaluation.
type Query struct {
	// Table is the relation to scan.
	Table string
	// Columns to project; empty means all.
	Columns []string
	// Where optionally filters rows.
	Where Expr
	// Limit truncates the result when positive.
	Limit int
}

// Execute opens an iterator for the query against the catalog.
func (c *Catalog) Execute(q Query) (Iterator, error) {
	t, err := c.Table(q.Table)
	if err != nil {
		return nil, err
	}
	var out Iterator = t.Scan()
	if q.Where != nil {
		out = Filter(out, q.Where)
	}
	if len(q.Columns) > 0 {
		out, err = Project(out, q.Columns)
		if err != nil {
			return nil, err
		}
	}
	if q.Limit > 0 {
		out = Limit(out, q.Limit)
	}
	return out, nil
}

// NextBlockAppend pulls up to size rows from it, appended to batch[:0].
// done is true when the iterator is exhausted (the returned rows may
// still be non-empty for the final partial block). A reused batch makes
// the per-block row-header allocation O(1) amortized; a nil one allocates. The returned slice aliases batch
// (when its capacity sufficed) — callers that reuse the batch must be
// done with the previous block's rows first. The Row values themselves
// are produced by the iterator and are not recycled.
func NextBlockAppend(it Iterator, size int, batch []Row) (rows []Row, done bool, err error) {
	if size < 1 {
		return nil, false, fmt.Errorf("minidb: block size %d must be positive", size)
	}
	rows = batch[:0]
	if cap(rows) < size {
		rows = make([]Row, 0, size)
	}
	for len(rows) < size {
		r, err := it.Next()
		if err == io.EOF {
			return rows, true, nil
		}
		if err != nil {
			return nil, false, err
		}
		rows = append(rows, r)
	}
	return rows, false, nil
}

// Collect drains an iterator, for tests and small results.
func Collect(it Iterator) ([]Row, error) {
	var out []Row
	for {
		r, err := it.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
}
