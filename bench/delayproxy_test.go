package main

import (
	"bytes"
	"crypto/sha256"
	"io"
	"math/rand"
	"net"
	"sort"
	"testing"
	"time"
)

// echoServer accepts one connection at a time and echoes it until EOF,
// then half-closes, so a client can observe both directions end cleanly.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				_, _ = io.Copy(c, c)
				_ = c.(*net.TCPConn).CloseWrite()
			}()
		}
	}()
	return ln
}

func TestDelayProxyDeliversBytesIntactWithHalfClose(t *testing.T) {
	ln := echoServer(t)
	defer ln.Close()
	p, err := newDelayProxy(ln.Addr().String(), 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	payload := make([]byte, 3<<20)
	rand.New(rand.NewSource(1)).Read(payload)
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	got := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(c)
		got <- b
	}()
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	// Half-close: the echo must still drain back after our write side
	// is gone, and its own EOF must reach us through the proxy.
	if err := c.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-got:
		if sha256.Sum256(b) != sha256.Sum256(payload) || !bytes.Equal(b[:64], payload[:64]) {
			t.Fatalf("echoed %d bytes differ from the %d sent", len(b), len(payload))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("echo did not complete: half-close was not forwarded")
	}
}

func TestDelayProxyPingPongRTT(t *testing.T) {
	ln := echoServer(t)
	defer ln.Close()
	p, err := newDelayProxy(ln.Addr().String(), 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	buf := make([]byte, 8)
	var rtts []time.Duration
	for i := 0; i < 30; i++ {
		t0 := time.Now()
		if _, err := c.Write(buf); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatal(err)
		}
		rtts = append(rtts, time.Since(t0))
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	med := rtts[len(rtts)/2]
	if med < 9*time.Millisecond || med > 11*time.Millisecond {
		t.Fatalf("median ping-pong RTT %v, want 10ms ± 1ms (min %v, max %v)", med, rtts[0], rtts[len(rtts)-1])
	}
}
