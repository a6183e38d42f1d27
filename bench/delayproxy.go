package main

import (
	"net"
	"sync"
	"time"
)

// delayProxy is a TCP relay that adds a fixed one-way delay to every
// chunk it forwards, in both directions. It gives the push-rtt workload
// the only physical latency in the benchmark: bytes really do sit in
// flight for the delay, so window x block / RTT bounds throughput the
// way it does on a WAN link, and no in-program sleep is involved.
type delayProxy struct {
	ln     net.Listener
	target string
	delay  time.Duration

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// chunk is one read's bytes and the instant they may be forwarded.
type chunk struct {
	data []byte
	due  time.Time
}

// relayQueue bounds the chunks in flight per direction. It must hold a
// full delay's worth of reads or the proxy would throttle bandwidth as
// well as add latency: 256 chunks of up to 32 KiB is 8 MiB per delay
// period, far above what one loopback connection moves in 5 ms.
const relayQueue = 256

// newDelayProxy listens on an ephemeral loopback port and relays every
// accepted connection to target.
func newDelayProxy(target string, oneWay time.Duration) (*delayProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &delayProxy{ln: ln, target: target, delay: oneWay, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Addr is the proxy's listen address (host:port).
func (p *delayProxy) Addr() string { return p.ln.Addr().String() }

// Close stops accepting, severs every relayed connection and returns
// once all relay goroutines have exited.
func (p *delayProxy) Close() {
	p.mu.Lock()
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.ln.Close()
	p.wg.Wait()
}

// track registers a connection for Close; it reports false (and closes
// the connection) when the proxy is already shutting down.
func (p *delayProxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close()
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *delayProxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
	c.Close()
}

func (p *delayProxy) accept() {
	defer p.wg.Done()
	for {
		down, err := p.ln.Accept()
		if err != nil {
			return
		}
		if !p.track(down) {
			return
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			p.untrack(down)
			continue
		}
		if !p.track(up) {
			p.untrack(down)
			return
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			var pair sync.WaitGroup
			pair.Add(2)
			go func() { defer pair.Done(); p.relay(up, down) }()
			go func() { defer pair.Done(); p.relay(down, up) }()
			pair.Wait()
			p.untrack(down)
			p.untrack(up)
		}()
	}
}

// relay copies src to dst, holding each chunk for the one-way delay.
// A reader goroutine stamps chunks as they arrive and a writer (this
// goroutine) releases them in order when due, so a burst of reads is
// delayed as a whole, not serialised one delay apiece. EOF on src is
// forwarded as a half-close after the queue has drained.
func (p *delayProxy) relay(dst, src net.Conn) {
	q := make(chan chunk, relayQueue)
	go func() {
		defer close(q)
		for {
			buf := make([]byte, 32<<10)
			n, err := src.Read(buf)
			if n > 0 {
				q <- chunk{data: buf[:n], due: time.Now().Add(p.delay)}
			}
			if err != nil {
				return
			}
		}
	}()
	failed := false
	for c := range q {
		if failed {
			continue // keep draining so the reader can finish
		}
		if d := time.Until(c.due); d > 0 {
			time.Sleep(d)
		}
		if _, err := dst.Write(c.data); err != nil {
			failed = true
			// Unblock the reader: nothing more can be delivered.
			src.Close()
		}
	}
	if tc, ok := dst.(*net.TCPConn); ok && !failed {
		_ = tc.CloseWrite() // the peer may already be gone
	}
}
