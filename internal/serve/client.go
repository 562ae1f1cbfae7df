package serve

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/cluster"
)

// ErrClosed is returned by client calls after the connection is gone.
var ErrClosed = errors.New("serve: client closed")

// RejectedError is the error Submit returns when the service sheds the
// job at admission.
type RejectedError struct{ Reason string }

func (e *RejectedError) Error() string { return "serve: job rejected: " + e.Reason }

// Client is one connection to a query service. All methods are safe
// for concurrent use; submits on one client are accepted in order.
type Client struct {
	conn net.Conn
	fc   *cluster.FrameConn

	mu      sync.Mutex
	err     error
	accepts []pendingAccept // FIFO: server replies in submit order
	jobs    map[uint64]*Job
}

// pendingAccept is a Submit waiting for its admission decision: the
// handle the job will have if it is accepted, and where the decision goes.
type pendingAccept struct {
	job *Job
	ch  chan cluster.JobAccept
}

// tailUpdateSlots is how many refreshes a tail job's handle buffers for
// a slow consumer before dropping; a job that does not tail has none.
const tailUpdateSlots = 1024

// Job is one accepted job's client-side handle.
type Job struct {
	// Accept is the server's admission reply (job ID, queue position).
	Accept cluster.JobAccept

	c       *Client
	updates chan cluster.JobUpdate
	done    chan struct{}
	result  cluster.JobResult
	err     error
}

// Dial connects to a query service and completes the hello exchange.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := NewClient(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewClient wraps an established connection (the caller dialed it) in
// a client: hello exchange, then a reader goroutine that demultiplexes
// accept/update/result frames to job handles.
func NewClient(conn net.Conn) (*Client, error) {
	fc := cluster.NewFrameConn(conn)
	if err := fc.DialHello(); err != nil {
		return nil, err
	}
	c := &Client{conn: conn, fc: fc, jobs: map[uint64]*Job{}}
	go c.readLoop()
	return c, nil
}

// Close tears the connection down; outstanding jobs settle with
// ErrClosed (the server cancels them on its side of the disconnect).
func (c *Client) Close() error { return c.conn.Close() }

// Submit sends one job and waits for the service's admission decision.
// A shed job returns a *RejectedError; an accepted job returns a
// handle whose result arrives via Wait. The read loop registers the
// handle before consuming any later frame, so a result racing the
// accept is never dropped.
func (c *Client) Submit(sub cluster.JobSubmit) (*Job, error) {
	slots := 0 // a job that does not tail has a channel that is only ever closed
	if sub.Tail {
		slots = tailUpdateSlots
	}
	p := pendingAccept{ch: make(chan cluster.JobAccept, 1),
		job: &Job{c: c, updates: make(chan cluster.JobUpdate, slots), done: make(chan struct{})}}
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return nil, c.err
	}
	c.accepts = append(c.accepts, p)
	c.mu.Unlock()
	if err := c.fc.Write(cluster.FrameJobSubmit, cluster.EncodeJobSubmit(sub)); err != nil {
		return nil, err
	}
	acc, ok := <-p.ch
	if !ok {
		return nil, c.closedErr()
	}
	if !acc.OK {
		return nil, &RejectedError{Reason: acc.Reason}
	}
	return p.job, nil
}

// Updates streams the job's tail refreshes (empty for batch jobs). The
// channel closes when the job settles.
func (j *Job) Updates() <-chan cluster.JobUpdate { return j.updates }

// Wait blocks until the job settles and returns its result. A job the
// service cancelled (or failed) returns the result frame alongside an
// error carrying its Err string.
func (j *Job) Wait() (cluster.JobResult, error) {
	<-j.done
	return j.result, j.err
}

// Cancel asks the service to cancel the job. The job still settles
// with a result frame (Err "cancelled") delivered to Wait.
func (j *Job) Cancel() error {
	return j.c.fc.Write(cluster.FrameJobCancel, cluster.EncodeJobCancel(cluster.JobCancel{ID: j.Accept.ID}))
}

func (c *Client) closedErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return ErrClosed
}

// readLoop demultiplexes server frames: accepts resolve FIFO (the
// server replies in submit order per connection), updates and results
// route by job ID. A read error settles every outstanding wait.
func (c *Client) readLoop() {
	err := c.run()
	c.mu.Lock()
	c.err = err
	accepts := c.accepts
	c.accepts = nil
	jobs := c.jobs
	c.jobs = map[uint64]*Job{}
	c.mu.Unlock()
	for _, p := range accepts {
		close(p.ch)
	}
	for _, j := range jobs {
		j.err = err
		close(j.updates)
		close(j.done)
	}
}

func (c *Client) run() error {
	for {
		f, err := c.fc.Next()
		if err != nil {
			return err
		}
		switch f.Type {
		case cluster.FrameJobAccept:
			acc, err := cluster.DecodeJobAccept(f.Payload)
			if err != nil {
				return err
			}
			c.mu.Lock()
			if len(c.accepts) == 0 {
				c.mu.Unlock()
				return fmt.Errorf("serve: unmatched job_accept")
			}
			p := c.accepts[0]
			c.accepts = c.accepts[1:]
			if acc.OK {
				p.job.Accept = acc
				c.jobs[acc.ID] = p.job
			}
			c.mu.Unlock()
			p.ch <- acc
		case cluster.FrameJobUpdate:
			u, err := cluster.DecodeJobUpdate(f.Payload)
			if err != nil {
				return err
			}
			c.mu.Lock()
			j := c.jobs[u.ID]
			c.mu.Unlock()
			if j != nil {
				select {
				case j.updates <- u:
				default: // slow consumer: drop; results still settle Wait
				}
			}
		case cluster.FrameJobResult:
			res, err := cluster.DecodeJobResult(f.Payload)
			if err != nil {
				return err
			}
			c.mu.Lock()
			j := c.jobs[res.ID]
			delete(c.jobs, res.ID)
			c.mu.Unlock()
			if j != nil {
				j.result = res
				if res.Err != "" {
					j.err = errors.New(res.Err)
				}
				close(j.updates)
				close(j.done)
			}
		default:
			return fmt.Errorf("serve: unexpected frame type %d", f.Type)
		}
	}
}
