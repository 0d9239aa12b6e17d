#!/usr/bin/env sh
# Run the engine benchmark grid and maintain the benchmark-trajectory
# artifacts (BENCH_PR<n>.json).
#
# Usage:
#   scripts/bench.sh                      # run grid, gate against newest artifact
#   scripts/bench.sh refresh [artifact]   # run grid, write artifact (default BENCH_PR16.json)
#   scripts/bench.sh quick <cellglob>     # run a named subset of the grid, no gate
#   scripts/bench.sh ab <rev> <bench-regex> [pairs]   # A/B a benchmark against <rev>
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
#
# ab interleaves a baseline and a variant of one package's benchmarks: it
# builds the test binary of the package that defines the benchmarks
# matching <bench-regex> once at <rev> (from `git archive <rev>` extracted
# into a temporary directory) and once from the working tree, then runs the two alternately for [pairs]
# pairs (default 10) at GOMAXPROCS=1, swapping which goes first each pair
# so host drift lands on both sides alike. It prints each pair's ns/op
# (summed over the matching benchmarks), the median variant/baseline ratio
# and the number of pairs the variant won. For example
# `scripts/bench.sh ab HEAD~1 'BenchmarkPlace$'`.
set -eu

mode=${1:-gate}

if [ "$mode" = ab ]; then
	rev=${2:?usage: scripts/bench.sh ab <rev> <bench-regex> [pairs]}
	re=${3:?usage: scripts/bench.sh ab <rev> <bench-regex> [pairs]}
	pairs=${4:-10}
	# The package is the one directory whose tests define a top-level
	# benchmark matching the regex's first path segment. The segment is
	# grouped, with the anchors around each top-level '|' dropped, so every
	# alternative is looked up, not only the last.
	top=$(printf '%s' "$re" | sed -e 's,/.*,,' -e 's/^\^//' -e 's/\$$//' -e 's/\$|/|/g' -e 's/|\^/|/g')
	pkgs=$(grep -rlE "^func (${top})[A-Za-z0-9_]*\(b \*testing\.B\)" --include='*_test.go' . |
		xargs -r -n1 dirname | sort -u)
	if [ -z "$pkgs" ] || [ "$(printf '%s\n' "$pkgs" | wc -l)" -ne 1 ]; then
		echo "bench.sh ab: '$re' must match benchmarks of exactly one package (found: $(printf '%s' "${pkgs:-none}" | tr '\n' ' '))" >&2
		exit 2
	fi
	if ! git rev-parse --verify --quiet "$rev^{commit}" >/dev/null; then
		echo "bench.sh ab: '$rev' names no commit" >&2
		exit 2
	fi
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT INT TERM
	echo "==> building $pkgs at $rev and from the working tree"
	mkdir "$tmp/base"
	git archive "$rev" | tar -x -C "$tmp/base"
	(cd "$tmp/base" && go test -c -o "$tmp/base.test" "$pkgs")
	go test -c -o "$tmp/head.test" "$pkgs"
	# nsop runs one binary and prints its ns/op, summed over the matching
	# benchmarks, from inside the package directory as go test would.
	nsop() {
		(cd "$pkgs" && GOMAXPROCS=1 "$1" -test.run '^$' -test.bench "$re" -test.count 1 -test.timeout 30m) |
			awk '/^Benchmark/ { for (i = 2; i <= NF; i++) if ($i == "ns/op") s += $(i-1); n++ }
				END { if (!n) exit 1; printf "%.0f\n", s }'
	}
	echo "==> $pairs alternating pairs of $re at GOMAXPROCS=1 (baseline $rev)"
	printf '%-5s %-6s %14s %14s %7s\n' pair first base_ns/op head_ns/op ratio
	ratios=""
	wins=0
	i=1
	while [ "$i" -le "$pairs" ]; do
		if [ $((i % 2)) -eq 1 ]; then
			first=base
			b=$(nsop "$tmp/base.test")
			h=$(nsop "$tmp/head.test")
		else
			first=head
			h=$(nsop "$tmp/head.test")
			b=$(nsop "$tmp/base.test")
		fi
		r=$(awk -v h="$h" -v b="$b" 'BEGIN { printf "%.4f", h / b }')
		printf '%-5s %-6s %14s %14s %7s\n' "$i" "$first" "$b" "$h" "$r"
		ratios="$ratios $r"
		if [ "$h" -lt "$b" ]; then
			wins=$((wins + 1))
		fi
		i=$((i + 1))
	done
	median=$(printf '%s\n' $ratios | sort -g |
		awk '{ v[NR] = $1 } END { if (NR % 2) print v[(NR + 1) / 2]; else printf "%.4f\n", (v[NR / 2] + v[NR / 2 + 1]) / 2 }')
	echo "median ratio (head/base): $median; head faster in $wins/$pairs pairs"
	exit 0
fi

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
	artifact=${2:-BENCH_PR16.json}
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
	echo "usage: scripts/bench.sh [refresh [artifact] | quick <cellglob> | ab <rev> <bench-regex> [pairs]]" >&2
	exit 2
	;;
esac
