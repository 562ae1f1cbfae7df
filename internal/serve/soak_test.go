package serve_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/queries"
	"repro/internal/serve"
)

// TestServeSoak is the concurrency satellite: one serve instance, eight
// tenants submitting interleaved jobs over their own connections under
// tight per-tenant budgets (so admission actually queues), with all
// three termination paths exercised — normal completion, explicit
// cancel, and abrupt client disconnect. Every completed job must match
// the golden digest, and the goroutine-leak check plus the server
// drain in cleanup prove nothing survives any path.
func TestServeSoak(t *testing.T) {
	checkGoroutineLeaks(t)
	golden := readGolden(t)
	reg := obs.NewRegistry()
	srv, addr := startServer(t, serve.Config{
		Budget:   serve.Budget{TenantJobs: 1, MaxQueued: 1024},
		Engine:   mapreduce.Config{NumReducers: 2, Parallelism: 2},
		Registry: reg,
	})
	for name, segs := range queries.GoldenDatasets(queries.GoldenSegments) {
		srv.AddDataset(name, segs)
	}
	specs := queries.All()

	const tenants = 8
	const jobsPerTenant = 6
	var wg sync.WaitGroup
	for tn := 0; tn < tenants; tn++ {
		wg.Add(1)
		go func(tn int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", tn)
			c, err := serve.Dial(addr)
			if err != nil {
				t.Errorf("%s: dial: %v", tenant, err)
				return
			}
			defer c.Close()
			for i := 0; i < jobsPerTenant; i++ {
				spec := specs[(tn*5+i*7)%len(specs)]
				j, err := c.Submit(cluster.JobSubmit{
					Tenant: tenant, Query: spec.ID, Dataset: spec.Dataset})
				if err != nil {
					t.Errorf("%s job %d: submit: %v", tenant, i, err)
					return
				}
				if (tn+i)%3 == 1 {
					// Cancel in flight: the race against completion is the
					// point — either outcome must be clean.
					if err := j.Cancel(); err != nil {
						t.Errorf("%s job %d: cancel: %v", tenant, i, err)
						return
					}
					res, err := j.Wait()
					if err != nil && res.Err != "cancelled" {
						t.Errorf("%s job %d: cancelled job settled %q (%v)", tenant, i, res.Err, err)
					}
					if err == nil {
						checkResult(t, tenant, spec.ID, res, golden)
					}
					continue
				}
				res, err := j.Wait()
				if err != nil {
					t.Errorf("%s job %d (%s): %v", tenant, i, spec.ID, err)
					continue
				}
				checkResult(t, tenant, spec.ID, res, golden)
			}
		}(tn)
	}

	// Disconnecting tenants: submit, then slam the connection without
	// waiting. The service must cancel the orphans and drain.
	for d := 0; d < 4; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			tenant := fmt.Sprintf("drop-%d", d)
			c, err := serve.Dial(addr)
			if err != nil {
				t.Errorf("%s: dial: %v", tenant, err)
				return
			}
			spec := specs[d%len(specs)]
			if _, err := c.Submit(cluster.JobSubmit{
				Tenant: tenant, Query: spec.ID, Dataset: spec.Dataset}); err != nil {
				t.Errorf("%s: submit: %v", tenant, err)
			}
			c.Close()
		}(d)
	}
	wg.Wait()

	// The books must balance: every submitted job was rejected or
	// settled exactly one way. Disconnect orphans may complete or
	// cancel depending on timing, so only the sum is pinned.
	snap := reg.Snapshot()
	settled := snap[serve.MetricJobsCompleted] + snap[serve.MetricJobsCancelled] + snap[serve.MetricJobsFailed]
	submitted := snap[serve.MetricJobsSubmitted] - snap[serve.MetricJobsRejected]
	// Orphans of just-closed connections may still be settling; the
	// server drain in cleanup guarantees they finish, so poll via Wait
	// in cleanup order instead of sleeping here: Close in startServer's
	// cleanup runs after this check, so require only <=.
	if settled > submitted {
		t.Errorf("settled %d jobs but only %d accepted", settled, submitted)
	}
	if snap[serve.MetricJobsFailed] != 0 {
		t.Errorf("%d jobs failed during soak", snap[serve.MetricJobsFailed])
	}
	if snap[serve.MetricJobsSubmitted] != tenants*jobsPerTenant+4 {
		t.Errorf("submitted metric %d, want %d", snap[serve.MetricJobsSubmitted], tenants*jobsPerTenant+4)
	}
}

// TestServeSoakHeapCeiling is the memory leg of the soak: four tenants,
// each over a dataset of its own, alternate re-submission with the
// append-once pattern (re-register the base, append a segment nobody
// sends again) for a fixed number of jobs against a small cache budget.
// What the service keeps per job must be bounded by that budget: the
// cache stays inside CacheBytes, and the live heap, measured after a
// collection once every job has settled, has grown by no more than
// heapCeiling over what it was before the first job — an admission rule
// that stored a prefix per list, or a session that outlived its job,
// shows here as growth per job.
func TestServeSoakHeapCeiling(t *testing.T) {
	checkGoroutineLeaks(t)
	const (
		tenants       = 4
		jobsPerTenant = 120
		cacheBytes    = 1 << 20
		heapCeiling   = 24 << 20
	)
	spec := queries.ByID("B3")
	segs := queries.GoldenDatasets(queries.GoldenSegments)[spec.Dataset]
	base, fresh := segs[:len(segs)-1], segs[len(segs)-1]
	wantBase, err := spec.Sequential(base)
	if err != nil {
		t.Fatal(err)
	}
	wantAll, err := spec.Sequential(segs)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, serve.Config{
		CacheBytes: cacheBytes,
		Engine:     mapreduce.Config{NumReducers: 2, Parallelism: 2},
	})
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := liveHeap()

	var wg sync.WaitGroup
	for tn := 0; tn < tenants; tn++ {
		wg.Add(1)
		go func(tn int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", tn)
			c, err := serve.Dial(addr)
			if err != nil {
				t.Errorf("%s: dial: %v", tenant, err)
				return
			}
			defer c.Close()
			// The tenant's own segments over the shared records: AddDataset
			// renumbers the segments it is given.
			base := make([]*mapreduce.Segment, len(base))
			for i, seg := range segs[:len(base)] {
				base[i] = &mapreduce.Segment{Records: seg.Records}
			}
			for i := 0; i < jobsPerTenant; i++ {
				srv.AddDataset(tenant, base)
				want := wantBase.Digest
				if i%2 == 1 {
					recs := append([][]byte(nil), fresh.Records...)
					recs[0] = append(append([]byte(nil), recs[0]...), fmt.Sprintf("%s/%d", tenant, i)...)
					if err := srv.AppendSegment(tenant, &mapreduce.Segment{Records: recs}); err != nil {
						t.Error(err)
						return
					}
					want = wantAll.Digest
				}
				j, err := c.Submit(cluster.JobSubmit{Tenant: tenant, Query: spec.ID, Dataset: tenant})
				if err != nil {
					t.Errorf("%s job %d: submit: %v", tenant, i, err)
					return
				}
				if res, err := j.Wait(); err != nil || res.Digest != want {
					t.Errorf("%s job %d: digest %016x, want %016x (%v)", tenant, i, res.Digest, want, err)
					return
				}
			}
		}(tn)
	}
	wg.Wait()

	st := srv.CacheStats()
	if st.Bytes > cacheBytes {
		t.Errorf("cache holds %d bytes of a %d budget", st.Bytes, cacheBytes)
	}
	if st.Evictions == 0 {
		t.Errorf("%d jobs never filled the cache (%d bytes): the budget was not exercised", tenants*jobsPerTenant, st.Bytes)
	}
	// The tenants share content, so they share prefixes: one for the
	// base list, none for the lists seen once.
	if st.Prefixes != 1 {
		t.Errorf("%d prefixes cached, want the base list's alone", st.Prefixes)
	}
	grown := liveHeap() - before
	t.Logf("live heap grew %d KB over %d jobs; cache %d bytes in %d entries",
		grown>>10, tenants*jobsPerTenant, st.Bytes, st.Entries)
	if grown > heapCeiling {
		t.Errorf("live heap grew %d MB over %d jobs, ceiling %d MB", grown>>20, tenants*jobsPerTenant, heapCeiling>>20)
	}
}
