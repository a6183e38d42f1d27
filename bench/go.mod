module wsopt/bench

// The toolchain's own version, so this module keeps building when the
// parent module raises its go line.
go 1.24

require wsopt v0.0.0

replace wsopt => ../
