#!/usr/bin/env bash
# Size record for ROADMAP item 9 ("delete what only an experiment, a
# model or a test reaches"): non-test, non-generated Go lines per package
# (benchmark/ excluded — it measures the program, it is not part of it)
# and the field counts of the option structs (mapreduce.Config,
# cluster.JobSpec, serve.Config, cluster.SpawnOptions), of the simulated
# cluster (dcsim.Cluster) and of the two user-facing query surfaces
# (queries.Spec, core.Query).
#
# `loc.sh --check` is a ratchet: it compares the total and the seven
# field counts against scripts/loc_record.txt and fails when any of them
# has grown. A PR that shrinks them lowers the record in the same
# commit; lowering it is the only edit a simplification PR makes to it.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
while IFS= read -r dir; do
    n=0
    for f in "$dir"/*.go; do
        case "$f" in *_test.go) continue ;; esac
        if head -5 "$f" | grep -q '^// Code generated'; then continue; fi
        n=$((n + $(wc -l <"$f")))
    done
    [ "$n" -gt 0 ] || continue
    printf '%7d  %s\n' "$n" "${dir#./}"
    total=$((total + n))
done < <(find . -name '*.go' -not -path './.git/*' -not -path './benchmark/*' -exec dirname {} \; | sort -u)
printf '%7d  total non-test Go lines\n' "$total"

# fields FILE TYPE: the number of fields `type TYPE struct` or the
# generic `type TYPE[…] struct` declares (`A, B int` counts two; comments
# and blank lines none).
fields() {
    awk -v ty="$2" '
        $1 == "type" && ($2 == ty || index($2, ty "[") == 1) && $(NF-1) == "struct" { in_s = 1; next }
        in_s && $1 == "}" { print n + 0; exit }
        in_s {
            sub(/\/\/.*/, "")
            for (i = 1; i <= NF; i++) { n++; if ($i !~ /,$/) break }
        }' "$1"
}
measured=$(
    echo "total $total"
    echo "mapreduce.Config $(fields internal/mapreduce/mapreduce.go Config)"
    echo "cluster.JobSpec $(fields internal/cluster/proto.go JobSpec)"
    echo "serve.Config $(fields internal/serve/server.go Config)"
    echo "cluster.SpawnOptions $(fields internal/cluster/spawn.go SpawnOptions)"
    echo "dcsim.Cluster $(fields internal/dcsim/dcsim.go Cluster)"
    echo "queries.Spec $(fields internal/queries/spec.go Spec)"
    echo "core.Query $(fields internal/core/core.go Query)"
)
echo "fields: $(echo "$measured" | tail -n +2 | paste -sd, - | sed 's/,/, /g')"

[ "${1:-}" = "--check" ] || exit 0
# Join measured against the record by name; any name over its record, or
# missing from either side, fails.
awk '
    NR == FNR { if ($0 !~ /^#/ && NF == 2) rec[$1] = $2; next }
    !($1 in rec) { printf "loc: %s is not in the record\n", $1; bad = 1; next }
    $2 > rec[$1] { printf "loc: %s grew: %d > record %d\n", $1, $2, rec[$1]; bad = 1 }
    $2 < rec[$1] { printf "loc: %s shrank: %d < record %d — lower scripts/loc_record.txt\n", $1, $2, rec[$1] }
    { seen[$1] = 1 }
    END {
        for (k in rec) if (!(k in seen)) { printf "loc: record names %s, which is no longer measured\n", k; bad = 1 }
        exit bad
    }' scripts/loc_record.txt <(echo "$measured") >&2
echo "loc: OK (nothing above scripts/loc_record.txt)"
