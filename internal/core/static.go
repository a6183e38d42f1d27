package core

import "fmt"

// Static is the fixed-block-size baseline the paper compares against
// (Tables I and III). It never adapts.
type Static struct {
	size int
	name string
}

// NewStatic returns a controller that always requests size tuples per
// block. Sizes below one tuple are raised to one.
func NewStatic(size int) *Static {
	if size < 1 {
		size = 1
	}
	return &Static{size: size, name: fmt.Sprintf("static-%d", size)}
}

// Size implements Controller.
func (s *Static) Size() int { return s.size }

// Observe implements Controller; measurements are ignored.
func (s *Static) Observe(float64) {}

// Name implements Controller.
func (s *Static) Name() string { return s.name }

// HoldsSize implements HoldsSize's capability: a fixed size is asked for
// on every pull.
func (s *Static) HoldsSize() bool { return true }
