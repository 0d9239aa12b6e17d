//go:build race

package cpu

// raceEnabled lets the multi-minute single-goroutine simulation suites
// (engine equivalence grids, SMT headline claims) skip under the race
// detector, whose 10-20x slowdown would push the package past CI budgets.
// The concurrency tests the detector exists for — concurrent Pool traffic
// with a run per borrowed machine (TestPoolConcurrent) — still run, and so
// does the pair-scoring referee (TestPairShapeMatchesScan).
const raceEnabled = true
