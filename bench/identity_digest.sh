#!/usr/bin/env bash
# Prints the byte-identity digest of a build: the identity_digest lines
# (chaos replays, monitored workloads), the md5 of each of fig4's four
# sink outputs (ORV_PROFILE, ORV_TRACE, ORV_PROM, ORV_DIAG stdout), then
# the md5 of the stdout of fig5-fig9 and six ablation benches.
#
#   bench/identity_digest.sh <build-dir> > digest.txt
#   diff -u bench/identity_digest.golden digest.txt
#
# A change that means to alter one of these outputs regenerates the
# golden file and says why.
set -euo pipefail
build=$(cd "${1:?usage: $0 <build-dir>}" && pwd)
"$build/bench/identity_digest"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
fig4="$build/bench/fig4_vary_ne_cs"
ORV_PROFILE=profile.json "$fig4" > /dev/null
ORV_TRACE=trace.json "$fig4" > /dev/null
ORV_PROM=prom.txt "$fig4" > /dev/null
ORV_DIAG=1 "$fig4" > diag.txt
for f in profile.json trace.json prom.txt diag.txt; do
  echo "fig4.${f%%.*} $(md5sum < "$f" | cut -d' ' -f1)"
done
for b in fig5_vary_compute_nodes fig6_vary_tuples fig7_vary_attributes \
    fig8_compute_power fig9_shared_fs ablation_schedule ablation_aggregation \
    ablation_concurrency ablation_placement ablation_session_cache \
    ablation_pipeline; do
  echo "$b.stdout $("$build/bench/$b" | md5sum | cut -d' ' -f1)"
done
