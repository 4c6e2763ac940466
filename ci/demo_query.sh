#!/usr/bin/env sh
# Prints a query string that is guaranteed to resolve against the demo
# lake. The demo CLI suggests one on stderr when a query misses (`Try
# --query "..."`); we probe with a label that can never link and scrape
# the suggestion. Used by the chaos, reproduce-smoke, and serve-smoke CI
# jobs so the extraction logic lives in exactly one place.
set -eu

suggested=$(cargo run --release --locked -p thetis --bin thetis-cli -- \
  --demo --query zzz 2>&1 |
  sed -n 's/.*Try --query "\([^"]*\)".*/\1/p')
test -n "$suggested"
printf '%s\n' "$suggested"
