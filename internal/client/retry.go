package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"wsopt/internal/service"
)

// RetryPolicy controls retries of every request the client makes:
// session management (opening and closing sessions, adjusting load) and
// block transfers. Block pulls and pushes carry a per-session sequence
// number, and the server buffers the last block per session, replaying
// it verbatim when the same seq is requested again — so retrying a
// failed transfer can neither skip nor duplicate tuples. A retried pull
// re-requests the *same* seq; the server either serves it fresh (if the
// first attempt never advanced the cursor) or replays the buffer (if the
// response was produced but lost in flight).
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (1 = no retry, the
	// default).
	MaxAttempts int
	// BaseDelay is the first backoff (default 50ms); each subsequent
	// attempt doubles it up to MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 2s).
	MaxDelay time.Duration
}

func (p RetryPolicy) normalized() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// SetRetry installs the retry policy for all requests, block transfers
// included.
func (c *Client) SetRetry(p RetryPolicy) { c.retry = p.normalized() }

// retryable reports whether a response status is worth another attempt:
// transient server-side conditions only.
func retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests,
		http.StatusInternalServerError,
		http.StatusBadGateway,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	default:
		return false
	}
}

// transientError marks a failure that is safe and worthwhile to retry:
// severed connections, truncated bodies, and 5xx responses. retryAfter
// carries a server-sent Retry-After hint (zero when none was sent); the
// backoff honours it as a floor on the next sleep.
type transientError struct {
	err        error
	retryAfter time.Duration
}

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// markTransient wraps err so isTransient reports true for it.
func markTransient(err error) error { return &transientError{err: err} }

// markTransientRetryAfter is markTransient carrying the server's
// Retry-After hint.
func markTransientRetryAfter(err error, retryAfter time.Duration) error {
	return &transientError{err: err, retryAfter: retryAfter}
}

// isTransient reports whether err was marked retryable.
func isTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// retryAfterHint extracts the server-sent backoff floor from a transient
// error chain (zero when none).
func retryAfterHint(err error) time.Duration {
	var te *transientError
	if errors.As(err, &te) {
		return te.retryAfter
	}
	return 0
}

// parseRetryAfter reads the server's backoff hint. The precise
// X-Retry-After-Ms header wins when present: the integer Retry-After
// rounds sub-second prices up to a whole second, and under regulator
// delay pricing that would make every shed client over-wait by up to
// 999ms. Falls back to Retry-After as delay-seconds or an HTTP-date;
// zero when absent or unparseable.
func parseRetryAfter(h http.Header) time.Duration {
	if v := h.Get(service.HeaderRetryAfterMS); v != "" {
		if ms, err := strconv.ParseFloat(v, 64); err == nil && ms > 0 {
			return time.Duration(ms * float64(time.Millisecond))
		}
	}
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// transportErr classifies an http.Client.Do failure: a cancelled or
// timed-out context is the caller's decision and is never retried;
// anything else (refused, reset, severed mid-body) is transient.
func transportErr(ctx context.Context, op string, err error) error {
	wrapped := fmt.Errorf("client: %s: %w", op, err)
	if ctx.Err() != nil {
		return wrapped
	}
	return markTransient(wrapped)
}

// backoff sleeps before the next retry (honouring ctx) and returns the
// next delay ceiling. The sleep is full-jitter: uniform in (0, delay],
// so concurrent clients that failed together do not retry in lockstep
// and hammer the recovering server in waves. A server-sent Retry-After
// on lastErr floors the sleep — the server knows its own recovery time
// better than the client's doubling schedule does. A context expiry is
// wrapped around lastErr so callers see why the retries were happening,
// not just that they were interrupted.
func backoff(ctx context.Context, delay, maxDelay time.Duration, lastErr error) (time.Duration, error) {
	sleep := delay
	if delay > 0 {
		sleep = time.Duration(rand.Int63n(int64(delay))) + 1
	}
	if floor := retryAfterHint(lastErr); floor > sleep {
		sleep = floor
	}
	select {
	case <-ctx.Done():
		if lastErr != nil {
			return 0, fmt.Errorf("client: %w (interrupted while retrying after: %v)", ctx.Err(), lastErr)
		}
		return 0, ctx.Err()
	case <-time.After(sleep):
	}
	delay *= 2
	if delay > maxDelay {
		delay = maxDelay
	}
	return delay, nil
}

// retryBlock is the one retry loop of every block transfer (pull, push
// stream, ingest upload). try runs attempt n of the block after *seq.
// A transient failure goes first to reroute, the transport's way around
// it without waiting (fail over, re-open the session); a true from it
// starts the next attempt at once, because the failure was that
// replica's, not the service's. Otherwise the attempt budget is checked
// and the loop backs off. It returns the attempts made.
func (c *Client) retryBlock(ctx context.Context, kind string, seq *uint64, try func(attempt int) error, reroute func(err error) bool) (int, error) {
	policy := c.retry.normalized()
	delay := policy.BaseDelay
	for attempt := 1; ; attempt++ {
		err := try(attempt)
		if err == nil || !isTransient(err) {
			return attempt, err
		}
		if reroute != nil && reroute(err) {
			continue
		}
		if attempt >= policy.MaxAttempts {
			if attempt > 1 {
				err = fmt.Errorf("client: %s block seq %d: giving up after %d attempts: %w", kind, *seq+1, attempt, err)
			}
			return attempt, err
		}
		if delay, err = backoff(ctx, delay, policy.MaxDelay, err); err != nil {
			return attempt, err
		}
	}
}

// doManagement performs a session-management request with the configured
// retry policy. It keeps its own loop: it retries on a response status as
// well as on an error, hands non-retryable statuses back as a response
// and never reroutes, so folding it into retryBlock would make that loop
// branch on its caller. body may be nil; it is re-materialized per attempt.
// wantStatus is the success status. The caller owns the returned response
// body on success.
func (c *Client) doManagement(ctx context.Context, method, url string, body []byte, contentType string, wantStatus ...int) (*http.Response, error) {
	policy := c.retry.normalized()
	var lastErr error
	delay := policy.BaseDelay
	for attempt := 1; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := c.hc.Do(req)
		if err == nil {
			for _, s := range wantStatus {
				if resp.StatusCode == s {
					return resp, nil
				}
			}
			if !retryable(resp.StatusCode) {
				return resp, nil // let the caller turn it into an error
			}
			lastErr = markTransientRetryAfter(httpFailure(method+" "+url, resp), parseRetryAfter(resp.Header))
			drain(resp)
		} else if ctx.Err() != nil {
			// The attempt died of the caller's deadline, not a new server
			// failure. Keep the last real failure in the message — it says
			// why the retries were happening — instead of letting the
			// transport's context error overwrite it.
			if lastErr != nil {
				return nil, fmt.Errorf("client: %w (interrupted while retrying after: %v)", ctx.Err(), lastErr)
			}
			return nil, fmt.Errorf("client: %s %s: %w", method, url, err)
		} else {
			lastErr = err
		}
		if attempt >= policy.MaxAttempts {
			return nil, fmt.Errorf("client: giving up after %d attempts: %w", attempt, lastErr)
		}
		if delay, err = backoff(ctx, delay, policy.MaxDelay, lastErr); err != nil {
			return nil, err
		}
	}
}
