#!/usr/bin/env sh
# Run the engine benchmark grid and maintain the benchmark-trajectory
# artifacts (BENCH_PR<n>.json).
#
# Usage:
#   scripts/bench.sh                      # run grid, gate against newest artifact
#   scripts/bench.sh refresh [artifact]   # run grid, write artifact (default BENCH_PR12.json)
#   scripts/bench.sh quick <cellglob>     # run a named subset of the grid, no gate
#
# quick runs only the BenchmarkEngine cells matching the glob — e.g.
# `scripts/bench.sh quick 'EP/*'` for all EP levels or
# `scripts/bench.sh quick 'CG/smt4'` for one cell — so a tuning loop
# iterates on the cells it cares about instead of the 30-minute grid.
#
# The gate judges against the highest-numbered checked-in BENCH_PR<n>.json
# (benchgate baseline); with no artifact at all it fails loudly instead of
# passing vacuously. It compares hardware-neutral event/scan speedup ratios
# (both engines measured in the same run), so it holds on any machine;
# absolute Mcycles/s numbers are recorded in the artifact as the trajectory.
# On a gate failure the slowest engine cell is re-run with CPU and memory
# profiling and the pprof files land next to the bench output in the
# artifact dir, so a regression report carries the profile that explains it.
set -eu

mode=${1:-gate}
# The raw bench output lands in the CI artifact dir so a failed gate run
# uploads the numbers it was judging.
artdir=${CI_ARTIFACT_DIR:-$(mktemp -d)}
mkdir -p "$artdir"
out="$artdir/bench.out"

if [ "$mode" = quick ]; then
	glob=${2:?usage: scripts/bench.sh quick <cellglob>   (e.g. 'EP/*' or 'CG/smt4')}
	# Glob -> anchored benchmark regex: '*' spans within a path segment.
	re=$(printf '%s' "$glob" | sed -e 's/[.[\()+?^$|]/\\&/g' -e 's/\*/[^\/]*/g')
	echo "==> quick grid subset: BenchmarkEngine/$glob"
	go test -run '^$' -bench "BenchmarkEngine/${re}$" \
		-benchtime 2x -count 1 -timeout 40m ./internal/cpu | tee "$out"
	exit 0
fi

echo "==> benchmark grid (engines x workloads x SMT levels)"
# 4 iterations per cell: the engines alternate in sub-second slices inside
# each iteration, so more iterations directly average more paired windows
# and the parity-floor cells (EP, MG — structural ratio ~1.02) measure
# stably inside the gate's floor.
go test -run '^$' -bench 'BenchmarkEngine|BenchmarkSteadyState' \
	-benchtime 4x -count 1 -timeout 40m ./internal/cpu | tee "$out"

case "$mode" in
refresh)
	artifact=${2:-BENCH_PR12.json}
	echo "==> rewriting $artifact"
	go run ./scripts/benchgate emit "$out" >"$artifact"
	echo "wrote $artifact"
	;;
gate)
	baseline=$(go run ./scripts/benchgate baseline)
	echo "==> gating against $baseline"
	if ! go run ./scripts/benchgate check "$baseline" "$out"; then
		cell=$(go run ./scripts/benchgate slowest "$out")
		echo "==> gate failed; profiling slowest cell $cell into $artdir"
		go test -run '^$' -bench "BenchmarkEngine/${cell}$" -benchtime 2x -count 1 \
			-timeout 40m -cpuprofile "$artdir/slowest.cpu.pprof" \
			-memprofile "$artdir/slowest.mem.pprof" ./internal/cpu \
			>"$artdir/slowest.bench.out" 2>&1 || true
		echo "profiles: $artdir/slowest.cpu.pprof $artdir/slowest.mem.pprof"
		exit 1
	fi
	;;
*)
	echo "usage: scripts/bench.sh [refresh [artifact] | quick <cellglob>]" >&2
	exit 2
	;;
esac
