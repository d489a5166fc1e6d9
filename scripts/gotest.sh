#!/usr/bin/env bash
# gotest.sh runs `go test` with the given arguments and fails when any
# package reports "[no tests to run]": a -run pattern that names a renamed or
# deleted test must fail the gate instead of passing silently. check.sh and
# CI run every -run step through it. Usage:
#
#   scripts/gotest.sh -race -cpu=1,4 ./internal/core/ -run 'TestA|TestB'
set -euo pipefail
status=0
out=$(go test "$@" 2>&1) || status=$?
printf '%s\n' "$out"
if [ "$status" -ne 0 ]; then
    exit "$status"
fi
if printf '%s\n' "$out" | grep -q '\[no tests to run\]'; then
    echo "gotest.sh: go test $*: the -run pattern matched no test in some package" >&2
    exit 1
fi
