#!/usr/bin/env sh
# The single CI entrypoint, runnable stage by stage.
#
# Usage:
#   scripts/ci.sh                  # full pipeline (every stage)
#   scripts/ci.sh quick            # every stage except race and fuzz
#   scripts/ci.sh <stage> [...]    # run the named stages in order
#
# Stages:
#   lint       build + smtlint + vet (with _fleetbench) + gofmt
#   test       unit & golden tests
#   bench      compile and run every benchmark once
#   benchgate  benchmark-trajectory gate (scripts/bench.sh)
#   smoke      smtservd boot, /healthz, graceful drain
#   chaos      seeded fault injection against one live smtservd
#   fleet      router + 2 shards, SIGKILL one shard mid-burst
#   race       race detector on the concurrent packages
#   fuzz       fuzz smoke (10s per target)
#
# CI (.github/workflows/ci.yml) calls this same entrypoint one stage per
# job, so a green local run means a green CI run and there is no script/
# workflow drift to maintain. Every stage is independently runnable: the
# server stages each build their own binaries into their own temp dir.
# Logs land in $CI_ARTIFACT_DIR (default: a fresh temp dir) so CI can
# upload them when a stage fails.
set -eu

artdir=${CI_ARTIFACT_DIR:-$(mktemp -d)}
mkdir -p "$artdir"

step() {
	echo
	echo "==> $*"
}

fail() {
	echo "ci.sh: $*" >&2
	exit 1
}

wait_healthy() {
	go run ./scripts/healthcheck -url "$1" -timeout 15s
}

stage_lint() {
	step "build"
	go build ./...
	step "wire-contract lock check"
	scripts/contract.sh check
	step "lint (smtlint + vet + gofmt)"
	# The smtlint/v2 JSON report is the failure artifact: diagnostics plus
	# the per-analyzer suppression tally.
	ok=0
	go run ./cmd/smtlint -json ./... >"$artdir/smtlint.json" || ok=$?
	if [ "$ok" -ne 0 ]; then
		cat "$artdir/smtlint.json"
		fail "smtlint found issues (report: $artdir/smtlint.json)"
	fi
	go vet ./...
	# The fleet benchmark is its own module, outside ./...; vet it so a
	# change that breaks the benchmark's build fails here.
	(cd _fleetbench && GOFLAGS= GOPROXY=off go vet .)
	out="$(gofmt -l .)"
	if [ -n "$out" ]; then
		echo "gofmt needed on:" >&2
		echo "$out" >&2
		exit 1
	fi
}

stage_test() {
	step "unit & golden tests"
	# The log is an artifact: on a golden-gate failure it carries the diff
	# against the checked-in artifacts.
	ok=0
	go test -count=1 ./... >"$artdir/test.log" 2>&1 || ok=$?
	cat "$artdir/test.log"
	[ "$ok" -eq 0 ] || exit "$ok"
}

stage_bench() {
	step "bench smoke"
	go test -run '^$' -bench . -benchtime=1x ./...
}

stage_benchgate() {
	step "bench trajectory gate"
	scripts/bench.sh
}

stage_smoke() {
	step "smtservd smoke (boot, /healthz, graceful drain)"
	dir=$(mktemp -d)
	go build -o "$dir/smtservd" ./cmd/smtservd
	"$dir/smtservd" -addr 127.0.0.1:18700 -quiet >"$artdir/smoke-smtservd.log" 2>&1 &
	servd_pid=$!
	if ! wait_healthy http://127.0.0.1:18700/healthz; then
		kill "$servd_pid" 2>/dev/null || true
		fail "smtservd never became healthy (log: $artdir/smoke-smtservd.log)"
	fi
	kill -TERM "$servd_pid"
	wait "$servd_pid" || fail "smtservd drain failed (log: $artdir/smoke-smtservd.log)"
}

stage_chaos() {
	step "chaos smoke (seeded fault injection against live smtservd)"
	dir=$(mktemp -d)
	go build -o "$dir/smtservd" ./cmd/smtservd
	go build -o "$dir/chaosprobe" ./scripts/chaosprobe
	"$dir/smtservd" -addr 127.0.0.1:18701 -quiet \
		-faults scripts/chaos-schedule.json \
		-cache-ttl 50ms -breaker-threshold 4 -breaker-cooldown 100ms -timeout 2s \
		>"$artdir/chaos-smtservd.log" 2>&1 &
	chaos_pid=$!
	if ! wait_healthy http://127.0.0.1:18701/healthz; then
		kill "$chaos_pid" 2>/dev/null || true
		fail "chaos smtservd never became healthy (log: $artdir/chaos-smtservd.log)"
	fi
	if ! "$dir/chaosprobe" -url http://127.0.0.1:18701 -clients 16 -requests 4; then
		kill "$chaos_pid" 2>/dev/null || true
		fail "chaos probe failed (log: $artdir/chaos-smtservd.log)"
	fi
	kill -TERM "$chaos_pid"
	wait "$chaos_pid" || fail "chaos smtservd drain failed"
}

stage_fleet() {
	step "fleet smoke (router + 2 shards, SIGKILL one shard mid-burst)"
	dir=$(mktemp -d)
	go build -o "$dir/smtservd" ./cmd/smtservd
	go build -o "$dir/smtrouter" ./cmd/smtrouter
	go build -o "$dir/chaosprobe" ./scripts/chaosprobe
	"$dir/smtservd" -addr 127.0.0.1:18710 -quiet \
		>"$artdir/fleet-shard0.log" 2>&1 &
	shard0=$!
	"$dir/smtservd" -addr 127.0.0.1:18711 -quiet \
		>"$artdir/fleet-shard1.log" 2>&1 &
	shard1=$!
	"$dir/smtrouter" -addr 127.0.0.1:18712 -quiet \
		-shards http://127.0.0.1:18710,http://127.0.0.1:18711 \
		-replicas 2 -cooldown 500ms \
		>"$artdir/fleet-router.log" 2>&1 &
	router=$!
	fleet_down() { kill "$shard0" "$shard1" "$router" 2>/dev/null || true; }
	for url in http://127.0.0.1:18710/healthz http://127.0.0.1:18711/healthz http://127.0.0.1:18712/healthz; do
		if ! wait_healthy "$url"; then
			fleet_down
			fail "fleet never became healthy (logs: $artdir/fleet-*.log)"
		fi
	done
	# Burst 1 through the router with a SIGKILL of shard 0 landing mid-run:
	# >= 99% of requests must still be answered (degraded answers marked),
	# which is the PR 5 chaos gate lifted to fleet scope. The burst mixes
	# /v1/analyze and /v1/place traffic so placement forwarding rides the
	# same replica-fallback contract.
	"$dir/chaosprobe" -url http://127.0.0.1:18712 -clients 16 -requests 25 -place 4 &
	probe=$!
	sleep 0.3
	kill -9 "$shard0" 2>/dev/null || true
	if ! wait "$probe"; then
		fleet_down
		fail "fleet chaos probe failed during shard kill (logs: $artdir/fleet-*.log)"
	fi
	# Burst 2 entirely after the loss: the surviving replica must answer
	# everything once the router has rebalanced.
	if ! "$dir/chaosprobe" -url http://127.0.0.1:18712 -clients 16 -requests 8 -place 2; then
		fleet_down
		fail "fleet chaos probe failed after shard loss (logs: $artdir/fleet-*.log)"
	fi
	kill -TERM "$router" "$shard1"
	wait "$router" || { kill "$shard1" 2>/dev/null || true; fail "router drain failed"; }
	wait "$shard1" || fail "surviving shard drain failed"
	wait "$shard0" 2>/dev/null || true
}

stage_race() {
	# racecover cross-checks the package list below against every
	# internal/* package that starts a goroutine, so additions to the tree
	# cannot silently dodge the detector.
	step "race-coverage check (smtlint racecover)"
	go run ./cmd/smtlint -run racecover ./...
	step "race detector (concurrent packages)"
	go test -race -count=1 ./internal/experiments ./internal/cpu ./internal/sched \
		./internal/server ./internal/router ./internal/httpx ./internal/report \
		./internal/fault ./internal/controller ./internal/workload \
		./internal/placement ./client
}

stage_fuzz() {
	step "fuzz smoke (10s per target)"
	go test -run '^$' -fuzz FuzzReader -fuzztime 10s ./internal/trace
	go test -run '^$' -fuzz FuzzSpecJSON -fuzztime 10s ./internal/workload
	go test -run '^$' -fuzz FuzzPlaceRouteKey -fuzztime 10s ./internal/router
	go test -run '^$' -fuzz FuzzAnalyzeRouteKey -fuzztime 10s ./internal/router
	go test -run '^$' -fuzz FuzzEndpoints -fuzztime 10s ./internal/server
	go test -run '^$' -fuzz FuzzIssueStreams -fuzztime 10s ./internal/cpu
	go test -run '^$' -fuzz FuzzPlaceCanonical -fuzztime 10s ./internal/placement
}

run_stage() {
	case "$1" in
	lint | test | bench | benchgate | smoke | chaos | fleet | race | fuzz)
		"stage_$1"
		;;
	*)
		fail "unknown stage '$1' (stages: lint test bench benchgate smoke chaos fleet race fuzz, or 'all'/'quick')"
		;;
	esac
}

if [ $# -eq 0 ]; then
	set -- all
fi
case "$1" in
all)
	for s in lint test bench benchgate smoke chaos fleet race fuzz; do
		run_stage "$s"
	done
	;;
quick)
	for s in lint test bench benchgate smoke chaos fleet; do
		run_stage "$s"
	done
	echo
	echo "quick mode: skipped race and fuzz stages"
	;;
*)
	for s in "$@"; do
		run_stage "$s"
	done
	;;
esac

echo
echo "CI stages passed: $*"
