#!/usr/bin/env bash
# Size record for ROADMAP item 3 ("one engine per job shape"): non-test,
# non-generated Go lines per package (benchmark/ excluded — it measures
# the program, it is not part of it) and the field counts of the four
# option structs. A record to compare across commits, not a gate.
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

# fields FILE TYPE: the number of fields `type TYPE struct` declares
# (`A, B int` counts two; comments and blank lines none).
fields() {
    awk -v ty="$2" '
        $1 == "type" && $2 == ty && $3 == "struct" { in_s = 1; next }
        in_s && $1 == "}" { print n + 0; exit }
        in_s {
            sub(/\/\/.*/, "")
            for (i = 1; i <= NF; i++) { n++; if ($i !~ /,$/) break }
        }' "$1"
}
printf 'fields: core.SympleOptions %d, mapreduce.Config %d, cluster.JobSpec %d, serve.Config %d\n' \
    "$(fields internal/core/core.go SympleOptions)" \
    "$(fields internal/mapreduce/mapreduce.go Config)" \
    "$(fields internal/cluster/proto.go JobSpec)" \
    "$(fields internal/serve/server.go Config)"
