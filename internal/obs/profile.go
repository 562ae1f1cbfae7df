package obs

import (
	"fmt"
	"os"
	"runtime/pprof"
)

// CPUProfile starts the process's CPU profile writing to path and
// returns a stop function that finishes the profile and closes the
// file. Go allows one CPU profile per process: a second call while one
// is active returns the runtime's error without touching path — which
// may be the very file the active profile is writing.
func CPUProfile(path string) (stop func(), err error) {
	// Open without truncating and truncate only once the runtime has
	// accepted the profile (it writes nothing before stop), so the error
	// path leaves an active profile's file alone.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: create cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: start cpu profile: %w", err)
	}
	if err := f.Truncate(0); err != nil {
		pprof.StopCPUProfile()
		f.Close()
		return nil, fmt.Errorf("obs: create cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}
