package mapreduce

import (
	"context"
	"strings"
	"testing"
)

type stubRemote struct{}

func (stubRemote) RunMap(context.Context, int, int, *Segment, AttemptFaults) (*MapOutput, error) {
	return &MapOutput{}, nil
}

// TestValidateRemoteRejections is the whole list of Config combinations
// the remote path refuses, one row each, checked through Job.Run so the
// rejection is known to reach the caller. An issue that makes a
// combination work deletes its row.
func TestValidateRemoteRejections(t *testing.T) {
	for _, tc := range []struct {
		name string
		conf Config
		want string // substring of the error; "" = accepted
	}{
		{"map only", Config{RemoteMap: stubRemote{}}, ""},
		{"map with faults", Config{RemoteMap: stubRemote{}, Faults: NewFaultPlan(1), MaxAttempts: 3}, ""},
		{"no reduce", Config{RemoteMap: stubRemote{}}, "RemoteMap is incompatible with a map-only job"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job := &Job{
				Name:   "remote-validate",
				Map:    func(int, *Segment, Emit) error { t.Error("local map ran"); return nil },
				Reduce: func(int, int, string, []Shuffled) error { return nil },
				Conf:   tc.conf,
			}
			if tc.name == "no reduce" {
				job.Reduce = nil
			}
			_, err := job.Run(countingSegments(2, 3))
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("accepted combination failed: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestExecuteMapRejectsCompress: a segment has one wire form, so asking
// ExecuteMap for the retired compressed one is an error before the map
// runs, and nothing reaches the sink.
func TestExecuteMapRejectsCompress(t *testing.T) {
	mapFn := func(int, *Segment, Emit) error { t.Error("map ran"); return nil }
	var runs runList
	out, err := ExecuteMap(mapFn, countingSegments(1, 3)[0], 0, 0, 2, true, nil, &runs)
	if err == nil || out != nil {
		t.Fatalf("ExecuteMap(compress=true) = %v, %v; want an error and no output", out, err)
	}
	if len(runs) != 0 {
		t.Fatalf("%d runs published", len(runs))
	}
}
