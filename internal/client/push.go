package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"wsopt/internal/minidb"
	"wsopt/internal/service"
)

// PushSession is an open upload cursor: the client ships blocks of tuples
// to the service, choosing each block's size. Not safe for concurrent use.
type PushSession struct {
	c *Client
	// url is the ingest session's own URL on the endpoint that opened it;
	// every block and the close go there, wherever the pool's preference
	// moves meanwhile.
	url string
	// seq numbers the blocks uploaded so far; a retried Send re-sends
	// the same number so the server can deduplicate a block whose
	// acknowledgement was lost.
	seq uint64
}

// OpenPush creates a server-side ingest session for the named table.
func (c *Client) OpenPush(ctx context.Context, table string) (*PushSession, error) {
	body, err := json.Marshal(map[string]string{"table": table})
	if err != nil {
		return nil, err
	}
	u, err := c.endpoint("ingest")
	if err != nil {
		return nil, err
	}
	resp, err := c.doManagement(ctx, http.MethodPost, u, body, "application/json", http.StatusCreated)
	if err != nil {
		return nil, fmt.Errorf("client: open push: %w", err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusCreated {
		return nil, httpFailure("open push", resp)
	}
	var cr struct {
		Session string `json:"session"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return nil, fmt.Errorf("client: decode push response: %w", err)
	}
	if cr.Session == "" {
		return nil, fmt.Errorf("client: server returned empty ingest session id")
	}
	if u, err = joinURL(u, cr.Session); err != nil {
		return nil, err
	}
	return &PushSession{c: c, url: u}, nil
}

// PushBlock is the timing record of one uploaded block.
type PushBlock struct {
	// Tuples uploaded in this block.
	Tuples int
	// Elapsed is the client-observed wall time of the request.
	Elapsed time.Duration
	// InjectedMS is the simulated delay the server applied (pre-scaling).
	InjectedMS float64
	// Attempts is how many uploads this block took (1 = no retry).
	Attempts int
	// Replayed is true when the server recognized the block as a
	// duplicate and acknowledged without re-applying it.
	Replayed bool
}

// Send uploads one block of rows and times it. Transient failures are
// retried under the client's RetryPolicy, re-sending the same sequence
// number so the server can acknowledge an already-applied block instead
// of loading it twice.
func (p *PushSession) Send(ctx context.Context, schema minidb.Schema, rows []minidb.Row) (*PushBlock, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("client: cannot push an empty block")
	}
	var buf bytes.Buffer
	if err := p.c.codec.Encode(&buf, schema, rows); err != nil {
		return nil, fmt.Errorf("client: encode block: %w", err)
	}
	seq := p.seq + 1
	u := p.url + "/block?" + service.Query{Seq: seq}.Encode()

	var blk *PushBlock
	attempts, err := p.c.retryBlock(ctx, "push", &p.seq, func(int) (err error) {
		blk, err = p.sendOnce(ctx, u, buf.Bytes(), len(rows))
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	blk.Attempts = attempts
	p.seq = seq
	return blk, nil
}

// sendOnce performs one upload attempt, marking recoverable failures
// transient.
func (p *PushSession) sendOnce(ctx context.Context, u string, payload []byte, tuples int) (*PushBlock, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", p.c.codec.ContentType())
	t1 := time.Now()
	resp, err := p.c.hc.Do(req)
	if err != nil {
		return nil, transportErr(ctx, "push block", err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusNoContent {
		err := httpFailure("push block", resp)
		if retryable(resp.StatusCode) {
			err = markTransient(err)
		}
		return nil, err
	}
	// The ack's headers: the priced delay, and whether the block was a
	// retry the server had already applied. Absent or malformed read as 0.
	delayMS, _ := strconv.ParseFloat(resp.Header.Get(service.HeaderInjectedDelayMS), 64)
	replayed, _ := strconv.ParseBool(resp.Header.Get(service.HeaderBlockReplay))
	return &PushBlock{Tuples: tuples, Elapsed: time.Since(t1), InjectedMS: delayMS, Replayed: replayed}, nil
}

// Close finishes the upload and returns the server-confirmed tuple count.
func (p *PushSession) Close(ctx context.Context) (int, error) {
	resp, err := p.c.doManagement(ctx, http.MethodDelete, p.url, nil, "", http.StatusOK)
	if err != nil {
		return 0, fmt.Errorf("client: close push: %w", err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return 0, httpFailure("close push", resp)
	}
	var cr struct {
		Tuples int `json:"tuples"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return 0, fmt.Errorf("client: decode close response: %w", err)
	}
	return cr.Tuples, nil
}
