package queries

import (
	"context"
	"testing"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/serve"
	"repro/internal/sym"
)

// allocated counts the containers built on the runner's compiled schema.
func (r *serveRunner[S, E, R]) allocated() int64 { return r.c.Schema().Allocated() }

// respec builds the runner's query again, as a Spec registered under id:
// a compiled query none of its paths has run yet.
func (r *serveRunner[S, E, R]) respec(id string) *Spec {
	return makeSpec(id, "", "", false, false, false, r.q, r.format)
}

// TestOneRuntimePerQuery: a process builds each query once. Every All
// and ByID call returns the same Spec and the service keeps the runner
// it was first given. A Spec.Symple job, a serve session's cold map and
// a cluster worker's assignment run on the query's one compiled schema
// and site pools, which a query built afresh (respec) shows: the schema
// counts the containers built on it, so whichever path runs first builds
// there, a warm job builds nothing, and once jobs have warmed the pools
// the other two build nothing. One segment, so every map runs it on one
// site, in one order.
func TestOneRuntimePerQuery(t *testing.T) {
	specs := All()
	runners := map[string]serve.Runner{}
	for i, spec := range All() {
		if spec != specs[i] || ByID(spec.ID) != spec {
			t.Fatalf("%s: All and ByID return different Specs", spec.ID)
		}
		runners[spec.ID] = serve.Lookup(spec.ID)
	}
	All()
	for id, r := range runners {
		if serve.Lookup(id) != r {
			t.Errorf("%s: the service's runner changed across All calls", id)
		}
	}

	datasets := smallDatasets(1)
	eps := chaosWorkers(t, 1)
	for _, spec := range specs {
		t.Run(spec.ID, func(t *testing.T) {
			segs := datasets[spec.Dataset]
			// fresh builds the query again under a name of its own and
			// returns its Spec and the containers built on its schema.
			fresh := func(name string) (*Spec, func() int64) {
				id := spec.ID + "/" + name
				s := serve.Lookup(spec.ID).(interface{ respec(string) *Spec }).respec(id)
				return s, serve.Lookup(id).(interface{ allocated() int64 }).allocated
			}
			// built runs f and returns what it built on the schema.
			built := func(allocated func() int64, f func()) int64 {
				before := allocated()
				f()
				return allocated() - before
			}
			serveMap := func(id string) func() { return func() { segmentBundles(t, id, segs) } }
			clusterMap := func(id string) func() {
				return func() {
					pool, err := cluster.NewPool(ClusterSpec(id, mapreduce.Config{NumReducers: 2}), eps)
					if err != nil {
						t.Fatal(err)
					}
					defer pool.Close()
					if _, err := pool.RunMap(context.Background(), 0, 0, segs[0], nil); err != nil {
						t.Fatal(err)
					}
				}
			}

			s, allocated := fresh("jobs-first")
			job := func() {
				if _, err := s.Symple(segs, mapreduce.Config{NumReducers: 2}); err != nil {
					t.Fatal(err)
				}
			}
			// The first job builds its exec and fold sites; jobs after it
			// draw them from the query's pools, until one builds nothing.
			if built(allocated, job) == 0 {
				t.Fatal("a Spec.Symple job built nothing on the service's schema")
			}
			for i := 0; built(allocated, job) != 0; i++ {
				if i == 10 {
					t.Fatal("ten warm jobs in, a job still builds containers")
				}
			}
			if n := built(allocated, serveMap(s.ID)); n != 0 {
				t.Errorf("a serve cold map after warm jobs built %d containers: its exec site is not the jobs'", n)
			}
			if n := built(allocated, clusterMap(s.ID)); n != 0 {
				t.Errorf("a cluster assignment after warm jobs built %d containers: its exec site is not the jobs'", n)
			}

			s, allocated = fresh("serve-first")
			if built(allocated, serveMap(s.ID)) == 0 {
				t.Error("a serve cold map built nothing on the query's schema")
			}
			s, allocated = fresh("cluster-first")
			if built(allocated, clusterMap(s.ID)) == 0 {
				t.Error("a cluster assignment built nothing on the query's schema")
			}
		})
	}
}

// runSymple is core.RunSymple on the runner's query: compiled afresh.
func (r *serveRunner[S, E, R]) runSymple(segs []*mapreduce.Segment, conf mapreduce.Config) error {
	_, err := core.RunSymple(r.q, segs, conf)
	return err
}

// groupBy is the identity of the runner's GroupBy closure: the key a
// segment keeps its query's grouped form under.
func (r *serveRunner[S, E, R]) groupBy() unsafe.Pointer {
	return *(*unsafe.Pointer)(unsafe.Pointer(&r.q.GroupBy))
}

// memoProbe keys what freeMemoSlots keeps: no query's key.
type memoProbe int

// freeMemoSlots fills seg's table of derived state with probe keys and
// returns how many it took: the slots no query's memo held.
func freeMemoSlots(seg *mapreduce.Segment) int {
	for i := 0; ; i++ {
		if seg.Derived(memoProbe(i), func() any { return i }) == nil {
			return i
		}
	}
}

// TestGroupedMemoTableBounded: RunSymple and SympleWithOptions compile a
// query afresh on every call, and the options differ from call to call,
// but the grouped form a segment keeps depends only on GroupBy: a
// hundred such calls of the four GitHub queries over one segment leave
// it one entry per GroupBy — G1–G3 share one — and every
// SympleWithOptions call answers as the sequential run does.
func TestGroupedMemoTableBounded(t *testing.T) {
	seg := fresh(smallDatasets(1)["github"])[0]
	segs := []*mapreduce.Segment{seg}
	var github []*Spec
	want := map[string]uint64{}
	groupBys := map[unsafe.Pointer]bool{}
	for _, spec := range All() {
		if spec.Dataset == "github" {
			github = append(github, spec)
			groupBys[serve.Lookup(spec.ID).(interface{ groupBy() unsafe.Pointer }).groupBy()] = true
			run, err := spec.Sequential(segs)
			if err != nil {
				t.Fatal(err)
			}
			want[spec.ID] = run.Digest
		}
	}
	free := freeMemoSlots(&mapreduce.Segment{})
	conf := mapreduce.Config{NumReducers: 2}
	for i := range 100 {
		spec := github[i%len(github)]
		if i%2 == 0 {
			run, err := spec.SympleWithOptions(segs, conf, sym.Options{MaxLivePaths: 1 + i%5})
			if err != nil {
				t.Fatalf("%s: %v", spec.ID, err)
			}
			if run.Digest != want[spec.ID] {
				t.Fatalf("%s call %d: digest %016x, sequential %016x", spec.ID, i, run.Digest, want[spec.ID])
			}
			continue
		}
		r := serve.Lookup(spec.ID).(interface {
			runSymple([]*mapreduce.Segment, mapreduce.Config) error
		})
		if err := r.runSymple(segs, conf); err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
	}
	if n := free - freeMemoSlots(seg); n != len(groupBys) {
		t.Errorf("a hundred compilations of %d queries with %d GroupBys took %d of the segment's %d slots",
			len(github), len(groupBys), n, free)
	}
}
