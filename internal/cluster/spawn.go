package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Spawning local worker subprocesses: cmd/symple -workers N starts N
// copies of the worker binary, each announcing its listen address on
// stdout, and holds their stdin pipes open — closing the pipe (or the
// parent dying) is the shutdown signal. The failure modes here are the
// ugly ones the streaming-sort fallback test taught us about: an empty
// PATH, a missing binary, or a worker that starts but never prints its
// banner must all surface as immediate, explanatory errors — never a
// silent hang waiting on a pipe that will stay empty forever.

// spawnBanner is the line prefix a worker prints on stdout once it is
// listening. WorkerMain writes it; SpawnWorker waits for it.
const spawnBanner = "SYMPLED LISTEN "

// DefaultSpawnTimeout bounds how long SpawnWorker waits for the banner.
const DefaultSpawnTimeout = 10 * time.Second

// SpawnOptions configures SpawnWorker.
type SpawnOptions struct {
	// Env, when non-nil, replaces the subprocess environment entirely
	// (like exec.Cmd.Env). The test harness uses this to flip the
	// spawned copy of the test binary into worker mode.
	Env []string
	// Timeout bounds the wait for the listen banner; 0 means
	// DefaultSpawnTimeout.
	Timeout time.Duration
}

// ResolveWorkerBinary locates the worker binary explicitly instead of
// leaning on exec.Command's implicit PATH search, so a missing binary
// or an empty PATH produces a clear error up front rather than a
// confusing late failure. Candidates, in order: the name as given when
// it contains a path separator, a sibling of the running executable,
// then $PATH.
func ResolveWorkerBinary(name string) (string, error) {
	if name == "" {
		return "", errors.New("cluster: worker binary name is empty")
	}
	if strings.ContainsRune(name, os.PathSeparator) {
		if _, err := os.Stat(name); err != nil {
			return "", fmt.Errorf("cluster: worker binary %q: %w", name, err)
		}
		return name, nil
	}
	if self, err := os.Executable(); err == nil {
		sib := filepath.Join(filepath.Dir(self), name)
		if st, err := os.Stat(sib); err == nil && !st.IsDir() {
			return sib, nil
		}
	}
	path, err := exec.LookPath(name)
	if err != nil {
		return "", fmt.Errorf("cluster: worker binary %q not found next to %s or on PATH "+
			"(build it with: go build ./cmd/sympled): %w", name, os.Args[0], err)
	}
	return path, nil
}

// SpawnedWorker is a worker subprocess this process started. It
// implements Endpoint: Connect dials the announced address, Close
// shuts the worker down (stdin EOF, then kill as a backstop).
type SpawnedWorker struct {
	dialEndpoint
	cmd   *exec.Cmd
	stdin io.WriteCloser

	once    sync.Once
	stopErr error
}

// Addr returns the worker's announced listen address.
func (s *SpawnedWorker) Addr() string { return s.addr }

// Close implements Endpoint: signal shutdown by closing stdin, then
// wait briefly and kill if the worker ignores the signal.
func (s *SpawnedWorker) Close() error {
	s.once.Do(func() {
		_ = s.stdin.Close()
		done := make(chan error, 1)
		go func() { done <- s.cmd.Wait() }()
		select {
		case err := <-done:
			// Exit after stdin EOF is the clean path; any exit code is
			// fine, we only care that it is gone.
			_ = err
		case <-time.After(5 * time.Second):
			_ = s.cmd.Process.Kill()
			s.stopErr = fmt.Errorf("cluster: worker %d ignored shutdown, killed", s.cmd.Process.Pid)
			<-done
		}
	})
	return s.stopErr
}

// SpawnWorker starts one worker subprocess from the resolved binary
// path and waits (bounded) for its listen banner. bin should come from
// ResolveWorkerBinary; passing a bare name that is not on PATH fails
// here immediately with exec's error rather than hanging.
func SpawnWorker(bin string, opts SpawnOptions) (*SpawnedWorker, error) {
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = DefaultSpawnTimeout
	}
	cmd := exec.Command(bin)
	if opts.Env != nil {
		cmd.Env = opts.Env
	}
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("cluster: worker stdin pipe: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("cluster: worker stdout pipe: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("cluster: starting worker %q: %w", bin, err)
	}
	// Read lines until the banner, with a hard deadline: a worker that
	// exits early or wedges before listening must not hang the spawn.
	type banner struct {
		addr string
		err  error
	}
	ch := make(chan banner, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if addr, ok := strings.CutPrefix(line, spawnBanner); ok {
				ch <- banner{addr: strings.TrimSpace(addr)}
				// Keep draining stdout so the worker never blocks on a
				// full pipe.
				go func() { _, _ = io.Copy(io.Discard, stdout) }()
				return
			}
		}
		err := sc.Err()
		if err == nil {
			err = errors.New("worker exited before announcing a listen address")
		}
		ch <- banner{err: err}
	}()
	fail := func(err error) (*SpawnedWorker, error) {
		_ = stdin.Close()
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, err
	}
	select {
	case b := <-ch:
		if b.err != nil {
			return fail(fmt.Errorf("cluster: worker %q: %w", bin, b.err))
		}
		if b.addr == "" {
			return fail(fmt.Errorf("cluster: worker %q printed an empty listen address", bin))
		}
		return &SpawnedWorker{
			dialEndpoint: dialEndpoint{addr: b.addr},
			cmd:          cmd,
			stdin:        stdin,
		}, nil
	case <-time.After(timeout):
		return fail(fmt.Errorf("cluster: worker %q did not announce a listen address within %v", bin, timeout))
	}
}

// SpawnWorkers starts n workers of the same binary, tearing all of
// them down if any fails to come up. The returned endpoints are ready
// to hand to NewPool; the caller closes them (stopping the workers)
// after the last pool using them is closed.
func SpawnWorkers(bin string, n int, opts SpawnOptions) ([]Endpoint, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least one worker, got %d", n)
	}
	eps := make([]Endpoint, 0, n)
	for i := 0; i < n; i++ {
		w, err := SpawnWorker(bin, opts)
		if err != nil {
			for _, ep := range eps {
				_ = ep.Close()
			}
			return nil, err
		}
		eps = append(eps, w)
	}
	return eps, nil
}
