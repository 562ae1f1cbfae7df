package queries

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mapreduce"
	"repro/internal/serve"
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
// and exec-site pool, which a query built afresh (respec) shows: the
// schema counts the containers built on it, so whichever path runs first
// builds there, and once jobs have warmed the pool the other two build
// nothing. One segment, so every map runs it on one site, in one order.
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
			// Jobs until one builds what the one before it did: its fold
			// sites, on a warm exec site.
			for last, i := int64(-1), 0; ; i++ {
				n := built(allocated, job)
				if n == 0 {
					t.Fatal("a Spec.Symple job built nothing on the service's schema")
				}
				if n == last {
					break
				}
				if i == 10 {
					t.Fatalf("ten jobs in, a job still builds %d containers, the one before %d", n, last)
				}
				last = n
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
