#!/usr/bin/env bash
# Runs every workload once, untraced, and stops at the first run whose
# outputs or workload shape were wrong:
#
#   bash extractbench/all.sh [seed] [seconds]
#
# Run it from the repository root.
set -euo pipefail
for w in ingest_routed ingest_durable_mixed extract_open; do
	bash extractbench/run.sh --workload "$w" --seed "${1:-1}" --seconds "${2:-15}" --trace 0
done
