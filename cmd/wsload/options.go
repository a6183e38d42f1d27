package main

import (
	"flag"
	"fmt"
	"time"

	"wsopt/internal/wire"
)

// options holds every flag value. validate fails fast on the ones that
// would otherwise panic (-streams -1 sizes a slice), do nothing and
// report success (-streams 0), or run a different load than the one
// asked for (-size 0 pulls one-tuple blocks).
type options struct {
	url, table string
	size       int
	streams    int
	duration   time.Duration
	codecName  string
	codec      wire.Codec // codecName, resolved by validate
	setLoad    string     // -set-load jobs:queries:memory; "" = generate load
	jobs       int        // setLoad, parsed by validate
	queries    int
	memory     float64
	maxQueries int
	retries    int
}

// parseOptions defines the flags on fs, parses args and validates the
// result; nothing in it exits the process. A flag-syntax error (and -h,
// as flag.ErrHelp) comes back as fs.Parse reported it.
func parseOptions(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.url, "url", "http://localhost:8080", "service base URL")
	fs.StringVar(&o.table, "table", "customer", "relation each stream scans")
	fs.IntVar(&o.size, "size", 2000, "fixed block size of the load streams")
	fs.IntVar(&o.streams, "streams", 3, "concurrent query streams")
	fs.DurationVar(&o.duration, "duration", 30*time.Second, "how long to run")
	fs.StringVar(&o.codecName, "codec", "xml", "block codec: xml or binary, each optionally +gzip (must match the server: nothing is negotiated)")
	fs.StringVar(&o.setLoad, "set-load", "", "set the simulated load knob as jobs:queries:memory and exit")
	fs.IntVar(&o.maxQueries, "max-queries", 0, "queries per stream before it stops early (0 = run until -duration)")
	fs.IntVar(&o.retries, "retries", 3, "pull attempts per block before a stream gives up")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return o, o.validate()
}

// validate checks the flag values and resolves -codec and -set-load.
// Every error names the flag at fault.
func (o *options) validate() (err error) {
	if o.codec, err = wire.ByName(o.codecName); err != nil {
		return fmt.Errorf("-codec: %w", err)
	}
	if o.setLoad != "" {
		if _, err := fmt.Sscanf(o.setLoad, "%d:%d:%f", &o.jobs, &o.queries, &o.memory); err != nil {
			return fmt.Errorf("bad -set-load %q: %v", o.setLoad, err)
		}
	}
	// The first check that fails is the error.
	check := func(ok bool, format string, args ...any) {
		if err == nil && !ok {
			err = fmt.Errorf(format, args...)
		}
	}
	check(o.size >= 1, "-size must be at least 1, got %d", o.size)
	check(o.streams >= 1, "-streams must be at least 1, got %d", o.streams)
	check(o.retries >= 1, "-retries must be at least 1, got %d", o.retries)
	check(o.duration > 0, "-duration must be positive, got %s", o.duration)
	check(o.maxQueries >= 0, "-max-queries must be >= 0, got %d", o.maxQueries)
	return err
}
