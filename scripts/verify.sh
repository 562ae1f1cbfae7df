#!/usr/bin/env bash
# Tier-1 verification: build, vet, formatting, full tests, and a race
# run of the pipelined shuffle (TestPipelinedStress) + SYMPLE runtime.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every leg's full output goes to a log under $VERIFY_LOGS (default: a
# fresh temporary directory). A passing leg's log is removed; a failing
# one is kept and its path printed, so a failure that does not reproduce
# still leaves a record.
logs=${VERIFY_LOGS:-$(mktemp -d -t verify.XXXXXX)}
mkdir -p "$logs"
# leg NAME CMD...: run CMD, teeing its output to $logs/NAME.log.
leg() {
    local log="$logs/$1.log"
    shift
    if ! "$@" 2>&1 | tee "$log"; then
        echo "verify: FAILED: $*" >&2
        echo "verify: full output kept in $log" >&2
        exit 1
    fi
    rm -f "$log"
}

fmt=$(gofmt -l . | grep -v '^\.git/' || true)
if [ -n "$fmt" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$fmt" >&2
    exit 1
fi

leg vet go vet ./...
leg build go build ./...
# The unit leg runs every fuzz target's seed corpus as plain tests
# (FuzzBundleFold and TestFuzzSeedBundleCorpus: the
# committed bundle seeds, each form a count of 0 takes, at two schemas;
# FuzzRunFold: the committed run seeds, one warm exec site against a
# fresh executor and the record-by-record feed) and the allocation ceilings of the two kinds of site, event groups of
# every size included (TestExecSiteAllocCeiling, TestFoldAllocCeiling),
# which stand down under the race detector.
leg unit go test ./...
# Micro-benchmarks, run once each so that they keep compiling and
# running: a registration's content digest over a fresh segment (MB/s),
# loading a mapped multi-MB file — the one scan that builds its record
# table (MB/s) — and a first touch's pass one — GroupBy and counting
# sort — per query (ns/row), with their allocations. EXPERIMENTS.md
# records what they read.
leg bench go test -run '^$' -bench 'BenchmarkSegmentDigest|BenchmarkReadSegments|BenchmarkGroupFirstTouch' -benchmem -benchtime 1x ./internal/mapreduce ./internal/queries
# The race leg covers the one SYMPLE engine end to end — the chunk
# executor, whose grouped form concurrent jobs keep on a segment at its
# second touch and share after (internal/mapreduce, internal/core,
# internal/queries) — and the sites' ownership rules: eight concurrent map tasks
# over one exec-site pool, no container built after a site's first chunk
# (internal/core, internal/sym), the storage contract between a fold
# site's decode containers — or a group's events' Update on its working
# spare — and the states it hands out (TestFoldSiteReuseNeverAliases,
# TestFoldResultOutlivesReset, TestServePrefixIsFrozen), and the
# events differential on all 12 queries (TestMetamorphicComposition: a
# small group's events bundle folds to its summaries' state from the
# initial state and a reached one, which stays byte-equal;
# TestEventGroupBoundary: groups cut to every size across the edge
# between the forms, through every fold site); plus the wire primitives
# the segment and frame codecs share (internal/wire).
leg race go test -race ./internal/sym ./internal/mapreduce ./internal/core ./internal/queries ./internal/data ./internal/wire
# Concurrent jobs making the second touch of the same segments keep one
# grouped form between them, under the segment's lock, ten times over.
leg second-touch go test -race -count=10 -run 'TestGroupedMemoConcurrentSecondTouch|TestDerivedMemoOnePerKey' ./internal/core ./internal/mapreduce
# Short chaos sweep: the one seeded fault plan (Config.Faults) kills,
# errors and delays attempts at every point it has — map start, first
# and mid emit, the k-th run sent, spill write, reduce merge and
# mid-partition — in process, inside cluster workers (plus connections
# dropped after k runs received), and per serve job (disconnect, cancel,
# cache flush mid-fold); every digest must equal the fault-free one. It covers the map-only shape
# (TestChaosMapOnlyDelivery: every task's output delivered once, whole,
# never a losing attempt's), the exec sites under it
# (TestChaosDroppedExecSite: an errored or killed attempt's site is
# dropped, never repooled) and TestChaosCoversEveryFault (every point ×
# kind fires). CI runs the wide sweep (CHAOS_SEEDS=100) in its own job.
leg chaos env CHAOS_SEEDS=6 go test -race -count=1 -run 'Chaos' ./internal/mapreduce ./internal/core ./internal/queries ./internal/cluster ./internal/serve
# Cluster leg: the coordinator/worker path — frame codec seeds, pool
# lifecycle, the two-lane segment cache, and transport-equivalence
# golden digests: all 12 queries byte-identical in process and over
# loopback workers (in-process and multi-process), with connection leak
# checks on success, worker death (a job with one of two workers dead
# for good still answers golden), and cancellation.
leg cluster go test -race -count=1 ./internal/cluster
# Serve leg: the multi-tenant query service under -race — the 8-tenant
# soak with goroutine-leak checks, the heap-ceiling soak (resubmit +
# append variants for a fixed job count: live heap and cache bytes
# bounded, one prefix), the metamorphic incremental suite (every append
# interleaving and every prefix split point reproduces the golden
# digests, warm submissions pinned to zero map attempts and
# prefix-answered ones to zero folds), a cold run's parts against a
# shuffling job's bundles for every query, the client's per-job
# allocation ceiling, the serve chaos sweep, and the job-frame codec
# regression over the committed fuzz seeds. (The overlay suite — a
# prefix's kept lines merged with an append's, against Spec.Sequential —
# is internal/queries' and runs in the race leg above.)
leg serve go test -race -count=1 ./internal/serve
leg frames go test -count=1 -run 'TestFuzzSeedFrameCorpus|TestFrameDecodeRejectsCorruption|TestJobFrameRoundTrips' ./internal/cluster
# GC-stress leg: at GOGC=1 the collector runs every few KB of garbage,
# so a reader that lets a loaded segment become unreachable before its
# last read of a record — or a view of one kept past its segment — finds
# the segment's mappings released and faults here, not in a user's job:
# the query service end to end, then the golden digests in every form
# (from disk and from a segment's kept grouped form included), the
# grouped-form memo's tests (a chunk's keys view the records; a kept
# form's are its own copies: TestGroupedMemoOwnsItsKeys) and the
# segment loads' mapping contract.
leg gc-stress-serve env GOGC=1 go test -count=1 ./internal/serve
leg gc-stress env GOGC=1 go test -count=1 -run 'Golden|ReadSegments|Segments|Memo' ./internal/queries ./internal/mapreduce ./internal/core
# Traced leg: every engine run auto-attaches a trace; the run fails if
# the completed trace breaks an obs.Verifier invariant or the metrics
# registry fails its self-check. ./internal/mapreduce includes map-only
# traces, clean and under chaos (no run_commit without a consumer;
# commit-matches-attempt and cpu-bound still hold); ./internal/serve adds
# the service's own traced jobs — cold (a map-only sub-job), warm,
# answered from a prefix, appended — checked against the serve-cache
# invariant; ./internal/cluster runs SYMPLE jobs over loopback workers,
# so the spans a worker ships back are verified too. CI's `traced` job
# runs the wide form (-count=2 -shuffle=on).
leg traced env OBS_VERIFY=1 go test -count=1 ./internal/mapreduce ./internal/core ./internal/queries ./internal/serve ./internal/cluster
# Benchmark smoke: all four workloads at 2000-record inputs, traced and
# untraced, every job digest-checked against Spec.Sequential.
leg benchsmoke go run ./benchmark -smoke
# Size ratchet (ROADMAP item 9): lines per package and option-struct
# field counts, failing when any has grown past scripts/loc_record.txt.
leg loc ./scripts/loc.sh --check
rmdir "$logs" 2>/dev/null || true
echo "verify: OK"
