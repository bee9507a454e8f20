#!/usr/bin/env bash
# Prints the byte-identity digest of a build: the identity_digest lines
# (chaos replays, monitored workloads), then the md5 of each of fig4's
# four sink outputs (ORV_PROFILE, ORV_TRACE, ORV_PROM, ORV_DIAG stdout).
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
