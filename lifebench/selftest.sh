#!/usr/bin/env bash
# Self-test of the benchmark's checks: on every workload, a deliberately
# wrong answer must fail the run (exit 1, "correct": false) and a
# deliberately failed operation must be counted ("failed" > 0).
# Run from the repository root:  bash lifebench/selftest.sh [seconds]
set -uo pipefail
cd "$(dirname "$0")/.."
seconds="${1:-2}"
status=0
for workload in point-tz batch-degrading swap-churn congest-grid; do
    out=$(bash lifebench/run.sh --workload "$workload" --seed 7 --seconds "$seconds" --trace 0 --inject wrong)
    code=$?
    last=$(printf '%s\n' "$out" | tail -n 1)
    if [ "$code" -ne 0 ] && [[ "$last" == *'"correct": false'* ]]; then
        echo "ok   $workload: a wrong answer fails the run (exit $code)"
    else
        echo "FAIL $workload: a wrong answer went unnoticed (exit $code): $last"
        status=1
    fi

    out=$(bash lifebench/run.sh --workload "$workload" --seed 7 --seconds "$seconds" --trace 0 --inject fail)
    code=$?
    last=$(printf '%s\n' "$out" | tail -n 1)
    if [[ "$last" =~ \"failed\":\ ([0-9]+) ]] && [ "${BASH_REMATCH[1]}" -gt 0 ]; then
        echo "ok   $workload: failed operations are counted (${BASH_REMATCH[1]} failed, exit $code)"
    else
        echo "FAIL $workload: a failed operation went uncounted (exit $code): $last"
        status=1
    fi
done
exit $status
