package lint_test

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

// A want is one expected diagnostic, parsed from a fixture comment of the
// form `// want <analyzer> "<message substring>"` on the offending line.
type want struct {
	file     string
	line     int
	analyzer string
	substr   string
}

var wantRE = regexp.MustCompile(`// want (\w+) "([^"]+)"`)

// parseWants scans the fixture sources in dir for expected-diagnostic
// comments, positioning them under the virtual paths LoadDir assigns.
func parseWants(t *testing.T, dir, rel string) []want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		virtual := e.Name()
		if rel != "." {
			virtual = rel + "/" + e.Name()
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				wants = append(wants, want{file: virtual, line: i + 1, analyzer: m[1], substr: m[2]})
			}
		}
	}
	return wants
}

// fixtureModule loads one testdata directory as if it lived at the
// module-relative path rel, assembling (and type-checking) a single-package
// fixture module with the given auxiliary stand-ins.
func fixtureModule(t *testing.T, dir, rel string, aux map[string][]byte) *lint.Module {
	t.Helper()
	fset := token.NewFileSet()
	pkg, err := lint.LoadDir(fset, dir, rel)
	if err != nil {
		t.Fatal(err)
	}
	return lint.Fixture(fset, aux, pkg)
}

// runFixtureAux runs the analyzers over a fixture module with auxiliary
// inputs and returns the full result, suppression counts included.
func runFixtureAux(t *testing.T, dir, rel string, aux map[string][]byte, analyzers ...*lint.Analyzer) *lint.Result {
	t.Helper()
	return lint.Run(fixtureModule(t, dir, rel, aux), analyzers)
}

// runFixture is runFixtureAux without aux, returning just the diagnostics.
func runFixture(t *testing.T, dir, rel string, analyzers ...*lint.Analyzer) []lint.Diagnostic {
	t.Helper()
	return runFixtureAux(t, dir, rel, nil, analyzers...).Diagnostics
}

// checkFixture runs the analyzer over a fixture directory and demands an
// exact match between the diagnostics and the `// want` comments: every
// want satisfied, no finding unaccounted for.
func checkFixture(t *testing.T, dir, rel string, analyzers ...*lint.Analyzer) {
	t.Helper()
	checkFixtureAux(t, dir, rel, nil, analyzers...)
}

// checkFixtureAux is checkFixture with auxiliary inputs injected.
func checkFixtureAux(t *testing.T, dir, rel string, aux map[string][]byte, analyzers ...*lint.Analyzer) {
	t.Helper()
	diags := runFixtureAux(t, dir, rel, aux, analyzers...).Diagnostics
	wants := parseWants(t, dir, rel)

	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if !matched[i] && d.File == w.file && d.Line == w.line &&
				d.Analyzer == w.analyzer && strings.Contains(d.Message, w.substr) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: missing diagnostic: want %s %q", w.file, w.line, w.analyzer, w.substr)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

func TestDetlint(t *testing.T) {
	checkFixture(t, "testdata/detlint", "internal/cpu", lint.Detlint)
}

// TestDetlintScope: the same sources outside the deterministic packages
// produce nothing — the contract is scoped, not global.
func TestDetlintScope(t *testing.T) {
	if diags := runFixture(t, "testdata/detlint", "internal/workload", lint.Detlint); len(diags) != 0 {
		t.Errorf("detlint fired outside its scope: %v", diags)
	}
}

func TestCtxlint(t *testing.T) {
	checkFixture(t, "testdata/ctxlint", "internal/server", lint.Ctxlint)
}

// TestCtxlintCmdScope: minting a root context in a main package is legal.
func TestCtxlintCmdScope(t *testing.T) {
	if diags := runFixture(t, "testdata/ctxcmd", "cmd/tool", lint.Ctxlint); len(diags) != 0 {
		t.Errorf("ctxlint flagged command-scope code: %v", diags)
	}
}

func TestPrintlint(t *testing.T) {
	checkFixture(t, "testdata/printlint", "internal/report", lint.Printlint)
}

// TestPrintlintScope: the same prints are legal in a cmd package, where
// stdout is the program's output channel.
func TestPrintlintScope(t *testing.T) {
	if diags := runFixture(t, "testdata/printlint", "cmd/tool", lint.Printlint); len(diags) != 0 {
		t.Errorf("printlint fired outside internal/*: %v", diags)
	}
}

func TestErrlint(t *testing.T) {
	checkFixture(t, "testdata/errlint", "internal/trace", lint.Errlint)
}

func TestExitlintLibrary(t *testing.T) {
	checkFixture(t, "testdata/exitlint_lib", "internal/util", lint.Exitlint)
}

func TestExitlintCmd(t *testing.T) {
	checkFixture(t, "testdata/exitlint_cmd", "cmd/tool", lint.Exitlint)
}

func TestConclint(t *testing.T) {
	checkFixture(t, "testdata/conclint", "internal/server", lint.Conclint)
}

// TestConclintScope: outside internal/* and cmd/* neither the goroutine
// nor the lock contracts apply.
func TestConclintScope(t *testing.T) {
	if diags := runFixture(t, "testdata/conclint", "client", lint.Conclint); len(diags) != 0 {
		t.Errorf("conclint fired outside its scope: %v", diags)
	}
}

// TestConclintSuppression: the //lint:ignore'd goroutine leak in the
// fixture is counted, not silently dropped.
func TestConclintSuppression(t *testing.T) {
	res := runFixtureAux(t, "testdata/conclint", "internal/server", nil, lint.Conclint)
	if res.Suppressed["conclint"] != 1 {
		t.Errorf("Suppressed[conclint] = %d, want 1", res.Suppressed["conclint"])
	}
}

// varslintDesign is the DESIGN.md stand-in for the varslint fixture: it
// documents every exported counter except lost_total, and declares one
// identity that holds and one that references the unexported ghost_total.
func varslintDesign() map[string][]byte {
	const design = `# Design (fixture)
<!-- varslint:counters:begin -->
| counter | package | meaning |
|---|---|---|
| ` + "`requests_total`" + ` | internal/server | probe requests accepted |
| ` + "`probes_total`" + ` | internal/server | probes executed |
| ` + "`dup_a`" + ` | internal/server | duplicate registration A |
| ` + "`dup_b`" + ` | internal/server | duplicate registration B |
| ` + "`forwarded_total`" + ` | internal/server | per-shard forwards |

identity (internal/server): ` + "`probes_total` + `dup_a` == `requests_total`" + `
identity (internal/server): ` + "`ghost_total` + `probes_total` == `requests_total`" + `
<!-- varslint:counters:end -->
`
	return map[string][]byte{"DESIGN.md": []byte(design)}
}

func TestVarslint(t *testing.T) {
	checkFixtureAux(t, "testdata/varslint", "internal/server", varslintDesign(), lint.Varslint)
}

// TestVarslintScope: the contract only binds the packages that publish a
// /debug/vars document.
func TestVarslintScope(t *testing.T) {
	res := runFixtureAux(t, "testdata/varslint", "internal/report", varslintDesign(), lint.Varslint)
	if len(res.Diagnostics) != 0 {
		t.Errorf("varslint fired outside its scope: %v", res.Diagnostics)
	}
}

// TestVarslintSuppression: the deliberately-unexported muted counter is
// acknowledged by a directive and lands in the suppression tally.
func TestVarslintSuppression(t *testing.T) {
	res := runFixtureAux(t, "testdata/varslint", "internal/server", varslintDesign(), lint.Varslint)
	if res.Suppressed["varslint"] != 1 {
		t.Errorf("Suppressed[varslint] = %d, want 1", res.Suppressed["varslint"])
	}
}

// TestVarslintIdentityThroughShell: the daemon shell (internal/httpx)
// merges its keys into every daemon's document, so a daemon's identity may
// name a counter only the shell exports — and stops resolving when the
// shell drops it.
func TestVarslintIdentityThroughShell(t *testing.T) {
	const design = "<!-- varslint:counters:begin -->\n" +
		"| `requests_total` | internal/httpx | requests finished |\n" +
		"| `probes_total` | internal/server | probes executed |\n\n" +
		"identity (internal/server): `probes_total` == `requests_total`\n" +
		"<!-- varslint:counters:end -->\n"
	lintWith := func(dirs map[string]string) []lint.Diagnostic {
		fset := token.NewFileSet()
		var pkgs []*lint.Package
		for dir, rel := range dirs {
			pkg, err := lint.LoadDir(fset, dir, rel)
			if err != nil {
				t.Fatal(err)
			}
			pkgs = append(pkgs, pkg)
		}
		m := lint.Fixture(fset, map[string][]byte{"DESIGN.md": []byte(design)}, pkgs...)
		return lint.Run(m, []*lint.Analyzer{lint.Varslint}).Diagnostics
	}
	if diags := lintWith(map[string]string{
		"testdata/varslint_daemon": "internal/server",
		"testdata/varslint_shell":  "internal/httpx",
	}); len(diags) != 0 {
		t.Errorf("identity through the shell: unexpected diagnostics %v", diags)
	}
	diags := lintWith(map[string]string{"testdata/varslint_daemon": "internal/server"})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, `references "requests_total"`) {
		t.Errorf("identity without the shell: got %v, want one finding naming requests_total", diags)
	}
}

// TestVarslintNoTable: a DESIGN.md without the marked counter table is
// itself a finding — the documentation half of the identity is mandatory.
func TestVarslintNoTable(t *testing.T) {
	aux := map[string][]byte{"DESIGN.md": []byte("# Design\nno counter table here\n")}
	res := runFixtureAux(t, "testdata/varslint", "internal/server", aux, lint.Varslint)
	found := false
	for _, d := range res.Diagnostics {
		if strings.Contains(d.Message, "no varslint counter table") {
			found = true
		}
	}
	if !found {
		t.Errorf("missing the no-counter-table diagnostic, got %v", res.Diagnostics)
	}
}

func wireFixtureLock(t *testing.T) string {
	t.Helper()
	lock, err := lint.WireContract(fixtureModule(t, "testdata/wirelint", "api", nil))
	if err != nil {
		t.Fatal(err)
	}
	return string(lock)
}

func runWirelintWithLock(t *testing.T, lock string) []lint.Diagnostic {
	t.Helper()
	aux := map[string][]byte{"api/contract.lock": []byte(lock)}
	return runFixtureAux(t, "testdata/wirelint", "api", aux, lint.Wirelint).Diagnostics
}

// TestWireContractFormat pins the lock's line format; the drift tests
// below mutate it textually and would silently stop testing anything if
// the renderer changed shape underneath them.
func TestWireContractFormat(t *testing.T) {
	lock := wireFixtureLock(t)
	if !strings.HasPrefix(lock, "# smtlint wire-contract lock v1") {
		t.Errorf("lock header drifted:\n%s", lock)
	}
	want := "type MetricRequest\n  Arch string json=arch\n  Factor float64 json=factor,omitempty\n"
	if !strings.Contains(lock, want) {
		t.Errorf("lock body drifted, want it to contain:\n%s\ngot:\n%s", want, lock)
	}
}

// TestWirelintCleanAgainstOwnLock: a package checked against its freshly
// generated contract has, by construction, no drift.
func TestWirelintCleanAgainstOwnLock(t *testing.T) {
	if diags := runWirelintWithLock(t, wireFixtureLock(t)); len(diags) != 0 {
		t.Errorf("clean api package against its own lock: %v", diags)
	}
}

// TestWirelintDrift simulates each kind of contract drift by mutating the
// generated lock and demands the specific diagnostic for it — including
// the acceptance case of deleting a field's pinned spelling.
func TestWirelintDrift(t *testing.T) {
	text := wireFixtureLock(t)
	cases := []struct{ name, lock, want string }{
		{"tag changed",
			strings.Replace(text, "json=arch", "json=arch_v2", 1),
			"json tag changed"},
		{"type changed",
			strings.Replace(text, "Factor float64", "Factor float32", 1),
			"type changed"},
		{"field removed",
			strings.Replace(text, "type MetricRequest\n", "type MetricRequest\n  Legacy int json=legacy\n", 1),
			"field MetricRequest.Legacy was removed but is pinned"},
		{"required addition",
			strings.Replace(text, "  Arch string json=arch\n", "", 1),
			"new field MetricRequest.Arch must be omitempty"},
		{"optional addition unpinned",
			strings.Replace(text, "  Factor float64 json=factor,omitempty\n", "", 1),
			"field MetricRequest.Factor is not pinned"},
		{"type removed",
			text + "type Gone\n  X int json=x\n",
			"wire type Gone was removed but is pinned"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.lock == text {
				t.Fatal("lock mutation did not apply: the lock format drifted under the test")
			}
			diags := runWirelintWithLock(t, c.lock)
			found := false
			for _, d := range diags {
				if strings.Contains(d.Message, c.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("want a diagnostic containing %q, got %v", c.want, diags)
			}
		})
	}
}

// TestWirelintMissingLockAndTags covers rule 1 (untagged exported field)
// and the missing-lock finding via want comments, plus the suppressed
// grandfathered field.
func TestWirelintMissingLockAndTags(t *testing.T) {
	checkFixture(t, "testdata/wirelint_bad", "api", lint.Wirelint)
	res := runFixtureAux(t, "testdata/wirelint_bad", "api", nil, lint.Wirelint)
	if res.Suppressed["wirelint"] != 1 {
		t.Errorf("Suppressed[wirelint] = %d, want 1", res.Suppressed["wirelint"])
	}
}

// TestRacecoverMissing: a goroutine-bearing internal package absent from
// the -race list is a finding at the first go statement.
func TestRacecoverMissing(t *testing.T) {
	aux := map[string][]byte{"scripts/ci.sh": []byte("go test -count=1 -race ./internal/server ./internal/router\n")}
	checkFixtureAux(t, "testdata/racecover", "internal/fanout", aux, lint.Racecover)
}

// TestRacecoverCovered: the same package listed in the race invocation —
// across a backslash continuation, as ci.sh writes it — is clean.
func TestRacecoverCovered(t *testing.T) {
	script := "go test -count=1 -race \\\n  ./internal/server \\\n  ./internal/fanout\n"
	aux := map[string][]byte{"scripts/ci.sh": []byte(script)}
	res := runFixtureAux(t, "testdata/racecover", "internal/fanout", aux, lint.Racecover)
	if len(res.Diagnostics) != 0 {
		t.Errorf("racecover flagged a covered package: %v", res.Diagnostics)
	}
}

// TestRacecoverScope: only internal/* packages are policed.
func TestRacecoverScope(t *testing.T) {
	aux := map[string][]byte{"scripts/ci.sh": []byte("go test -race ./internal/server\n")}
	res := runFixtureAux(t, "testdata/racecover", "cmd/fanout", aux, lint.Racecover)
	if len(res.Diagnostics) != 0 {
		t.Errorf("racecover fired outside internal/*: %v", res.Diagnostics)
	}
}

// TestSuppression pins the //lint:ignore machinery on testdata/suppress:
// valid directives (same line and line above) silence the finding, a
// directive naming an unknown analyzer suppresses nothing and is itself
// reported, and a reason-less directive is reported as malformed.
func TestSuppression(t *testing.T) {
	res := runFixtureAux(t, "testdata/suppress", "internal/cpu", nil, lint.All()...)
	diags := res.Diagnostics

	type key struct {
		analyzer string
		substr   string
	}
	wantCounts := map[key]int{
		{"lint", "unknown analyzer"}:    1, // the speedlint directive
		{"lint", "malformed directive"}: 1, // the reason-less directive
		{"detlint", "time.Now"}:         2, // Wrong (unsuppressed) + Short (malformed directive)
		{"detlint", "time.Since"}:       1, // Wrong only; Calibrate is suppressed
	}
	got := map[key]int{}
	for _, d := range diags {
		for k := range wantCounts {
			if d.Analyzer == k.analyzer && strings.Contains(d.Message, k.substr) {
				got[k]++
			}
		}
	}
	for k, n := range wantCounts {
		if got[k] != n {
			t.Errorf("%s %q: got %d diagnostics, want %d", k.analyzer, k.substr, got[k], n)
		}
	}
	if want := 5; len(diags) != want {
		t.Errorf("total diagnostics = %d, want %d:", len(diags), want)
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}
	// The valid directives did not vanish findings — they are accounted
	// for in the suppression tally the JSON report surfaces.
	if res.Suppressed["detlint"] == 0 {
		t.Errorf("Suppressed[detlint] = 0, want the //lint:ignore'd findings counted")
	}
}

// TestDiagnosticString pins the file:line:col output format editors and CI
// log scrapers rely on.
func TestDiagnosticString(t *testing.T) {
	d := lint.Diagnostic{File: "internal/cpu/machine.go", Line: 12, Col: 3,
		Analyzer: "detlint", Message: "boom"}
	if got, want := d.String(), "internal/cpu/machine.go:12:3: detlint: boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestAnalyzersHaveDocs: every registered analyzer carries the metadata the
// CLI's -list output prints.
func TestAnalyzersHaveDocs(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range lint.All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc or run function", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

// TestModuleIsClean is the in-process form of the CI gate: the repository's
// own tree must lint clean, so a regression fails `go test` even before the
// smtlint CI step runs.
func TestModuleIsClean(t *testing.T) {
	root, err := lint.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := lint.LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	// The build stage guarantees a compiling tree, so the type checker must
	// agree — residual type errors here mean the checker itself regressed.
	for _, err := range mod.TypeErrors {
		t.Errorf("type-check: %v", err)
	}
	res := lint.Run(mod, lint.All())
	for _, d := range res.Diagnostics {
		t.Errorf("%s", d)
	}
	if len(res.Diagnostics) > 0 {
		t.Log("fix the findings or suppress them with //lint:ignore <analyzer> <reason>")
	}
}

// TestLoadDirVirtualPaths: fixtures must surface under the rel path the
// test assigns, or scoped analyzers would see the wrong package identity.
func TestLoadDirVirtualPaths(t *testing.T) {
	fset := token.NewFileSet()
	pkg, err := lint.LoadDir(fset, "testdata/detlint", "internal/cpu")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Rel != "internal/cpu" {
		t.Errorf("pkg.Rel = %q, want internal/cpu", pkg.Rel)
	}
	var haveTest bool
	for _, f := range pkg.Files {
		if !strings.HasPrefix(f.Path, "internal/cpu/") {
			t.Errorf("file path %q not under the virtual rel", f.Path)
		}
		if f.Test {
			haveTest = true
		}
	}
	if !haveTest {
		t.Error("det_test.go not recognised as a test file")
	}
}

// ExampleDiagnostic shows the rendered diagnostic form.
func ExampleDiagnostic() {
	d := lint.Diagnostic{File: "internal/smtsm/metric.go", Line: 40, Col: 9,
		Analyzer: "detlint", Message: "time.Now in deterministic package internal/smtsm: results must not depend on wall-clock time"}
	fmt.Println(d)
	// Output: internal/smtsm/metric.go:40:9: detlint: time.Now in deterministic package internal/smtsm: results must not depend on wall-clock time
}
