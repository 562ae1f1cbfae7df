// Command sympled is the SYMPLE cluster daemon, in one of two modes.
//
// Worker mode (default): a coordinator (symple -workers N, or anything
// driving internal/cluster.Pool) connects over TCP, ships map
// assignments, and receives the encoded shuffle runs back. The daemon
// announces its bound address on stdout as "SYMPLED LISTEN <addr>" and
// shuts down when stdin reaches EOF, so a parent process that dies
// takes its workers with it.
//
// Serve mode (-serve): a long-running multi-tenant query service. The
// daemon hosts the four generated corpora as named datasets, accepts
// job submissions from symple submit/tail clients over the same frame
// protocol, answers through the incremental segment-summary cache, and
// announces "SYMPLED SERVE <addr>".
//
// Usage:
//
//	sympled                       # worker, loopback, kernel-assigned port
//	sympled -listen 0.0.0.0:7070  # worker, fixed address
//	sympled -serve -records 200000 -segments 8
//	sympled -serve -tenant-jobs 2 -tenant-mb 256 -queue 64 -cache-mb 256
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/queries"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sympled: ")
	var (
		listen = flag.String("listen", "127.0.0.1:0",
			"address to listen on (host:0 picks a free port, announced on stdout)")
		serveMode = flag.Bool("serve", false,
			"run as a multi-tenant query service instead of a cluster worker")
		records    = flag.Int("records", 200000, "serve: records per hosted corpus")
		segments   = flag.Int("segments", 8, "serve: segments per hosted corpus")
		tenantJobs = flag.Int("tenant-jobs", 2,
			"serve: max concurrently running jobs per tenant")
		tenantMB = flag.Int("tenant-mb", 256,
			"serve: max in-flight input megabytes per tenant")
		queueDepth = flag.Int("queue", 64,
			"serve: max queued jobs across all tenants before shedding")
		cacheMB   = flag.Int("cache-mb", 256, "serve: segment-summary cache capacity in megabytes")
		tracePath = flag.String("trace", "", "serve: write JSONL job spans to this file")
	)
	flag.Parse()

	// Link every query's map and fold sides into the registries; a
	// daemon that skipped this would reject all work.
	queries.RegisterClusterJobs()
	if !*serveMode {
		if err := cluster.WorkerMain(*listen); err != nil {
			log.Fatal(err)
		}
		return
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	cfg := serve.Config{
		Budget: serve.Budget{
			TenantJobs:  *tenantJobs,
			TenantBytes: int64(*tenantMB) << 20,
			MaxQueued:   *queueDepth,
		},
		CacheBytes: int64(*cacheMB) << 20,
		Registry:   obs.NewRegistry(),
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		jsink := obs.NewJSONLSink(f)
		defer jsink.Close()
		cfg.Trace = obs.NewTrace(jsink)
	}
	srv := serve.New(cfg)
	d := bench.GenDatasets(bench.Scale{Records: *records, Segments: *segments})
	for _, name := range []string{"github", "bing", "twitter", "redshift"} {
		segs, err := d.For(name, false)
		if err != nil {
			log.Fatal(err)
		}
		srv.AddDataset(name, segs)
	}
	fmt.Printf("SYMPLED SERVE %s\n", ln.Addr())
	go func() {
		// Block until the parent closes our stdin (EOF) or it errors,
		// then drain the service.
		_, _ = io.Copy(io.Discard, bufio.NewReader(os.Stdin))
		srv.Close()
	}()
	if err := srv.Serve(ln); err != nil {
		log.Fatal(err)
	}
}
