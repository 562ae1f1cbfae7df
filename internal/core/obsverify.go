package core

import (
	"fmt"
	"os"

	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// obsVerifyEnabled gates the self-verifying run mode: with OBS_VERIFY=1
// in the environment, every RunBaseline/RunSymple call that was not
// given a trace gets an in-memory one, and after a successful run the
// trace must pass every obs.Verifier invariant and the registry its
// self-checks, or the run reports an error. The CI `traced` leg runs the
// full engine suite under this flag, so every query execution in every
// test doubles as an invariant check at zero test-writing cost.
var obsVerifyEnabled = os.Getenv("OBS_VERIFY") == "1"

// obsAutoVerify inspects conf and, when self-verification is on and the
// caller did not attach its own trace, wires an in-memory sink and
// registry into it. The returned function wraps the job's error: it
// passes real failures through untouched and otherwise replaces a nil
// error with any invariant violation found in the captured trace.
func obsAutoVerify(conf *mapreduce.Config) func(error) error {
	if !obsVerifyEnabled || conf.Trace != nil {
		return func(err error) error { return err }
	}
	sink := obs.NewMemSink()
	conf.Trace = obs.NewTrace(sink)
	if conf.Registry == nil {
		conf.Registry = obs.NewRegistry()
	}
	reg := conf.Registry
	return func(err error) error {
		if err != nil {
			return err
		}
		if verr := (obs.Verifier{}).Check(sink.Spans()); verr != nil {
			return fmt.Errorf("OBS_VERIFY trace: %w", verr)
		}
		if serr := reg.SelfCheck(); serr != nil {
			return fmt.Errorf("OBS_VERIFY registry: %w", serr)
		}
		return nil
	}
}
