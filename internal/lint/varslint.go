package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Varslint enforces the observability identity between three places a
// counter's name lives: the atomic field that is incremented, the
// /debug/vars document that exports it, and the DESIGN.md counter table
// that documents it.
//
//   - every atomic.Uint64 struct field that is incremented (.Add) in
//     internal/server, internal/router or their shared daemon shell
//     internal/httpx must be exported on /debug/vars exactly once, in the
//     package that increments it — a counter that counts but never
//     surfaces is a blind spot, and one surfaced twice is an ambiguity;
//   - every exported counter name must appear in the DESIGN.md counter
//     table (between the varslint:counters markers);
//   - the identity families declared in DESIGN.md (such as
//     responses_2xx + responses_4xx + responses_5xx == requests_total) are
//     cross-referenced by name: an identity naming a var that neither the
//     package nor the shell (which merges its keys into every daemon's
//     document) exports is a stale contract.
//
// Export binding is deliberately direct: a vars entry counts as exporting
// a field when its value is `field.Load()` or a local assigned straight
// from `field.Load()`. Derived aggregates (sums over shards) are gauges on
// top of counters, not the counters' registration.
var Varslint = &Analyzer{
	Name: "varslint",
	Doc:  "incremented counters export exactly once on /debug/vars, appear in the DESIGN.md counter table, and identity families resolve by name",
	Run:  runVarslint,
}

// varsScope lists the packages that publish a /debug/vars document or,
// for the shell, a fragment of every daemon's document.
var varsScope = map[string]bool{"internal/server": true, "internal/router": true, shellPkg: true}

// shellPkg is the daemon shell: the keys it exports appear in the document
// of every daemon, so an identity of any daemon may name them.
const shellPkg = "internal/httpx"

// Markers delimiting the counter table (and identity lines) in DESIGN.md.
const (
	countersBegin = "<!-- varslint:counters:begin -->"
	countersEnd   = "<!-- varslint:counters:end -->"
)

// isAtomicCounter reports whether a type is sync/atomic.Uint64.
func isAtomicCounter(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && obj.Name() == "Uint64"
}

// fieldVar resolves an expression to the struct-field object it denotes,
// through any selector chain (`s.met.requests` -> the requests field).
func (p *Pass) fieldVar(e ast.Expr) *types.Var {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := p.Mod.Info.Selections[sel]; ok {
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
	}
	if v, ok := p.ObjectOf(sel.Sel).(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

// loadOfCounter resolves `X.Load()` to the atomic counter field X, or nil.
func (p *Pass) loadOfCounter(e ast.Expr) *types.Var {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Load" {
		return nil
	}
	field := p.fieldVar(sel.X)
	if field == nil || !isAtomicCounter(field.Type()) {
		return nil
	}
	return field
}

// export is one /debug/vars entry bound to a counter field.
type export struct {
	key string
	pos token.Pos
}

func runVarslint(p *Pass) {
	if !varsScope[p.Pkg.Rel] {
		return
	}

	increments := map[*types.Var]token.Pos{} // counter field -> first .Add site
	exports := map[*types.Var][]export{}     // counter field -> vars entries
	allKeys := map[string]bool{}             // every string key of a vars literal
	var anchor token.Pos                     // fallback position for package-level findings

	for _, f := range p.Pkg.Files {
		if f.Test {
			continue
		}
		if anchor == token.NoPos {
			anchor = f.AST.Pos()
		}
		// Pass A: increments, and local bindings `x := field.Load()`.
		bindings := map[types.Object]*types.Var{}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" {
					if field := p.fieldVar(sel.X); field != nil && isAtomicCounter(field.Type()) {
						if _, seen := increments[field]; !seen {
							increments[field] = n.Pos()
						}
					}
				}
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, rhs := range n.Rhs {
						if field := p.loadOfCounter(rhs); field != nil {
							if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
								if obj := p.ObjectOf(id); obj != nil {
									bindings[obj] = field
								}
							}
						}
					}
				}
			}
			return true
		})
		// Pass B: vars-document entries.
		p.varsEntries(f, func(key string, kv *ast.KeyValueExpr) {
			allKeys[key] = true
			field := p.loadOfCounter(kv.Value)
			if field == nil {
				if id, isID := kv.Value.(*ast.Ident); isID {
					if obj := p.ObjectOf(id); obj != nil {
						field = bindings[obj]
					}
				}
			}
			if field != nil && isAtomicCounter(field.Type()) {
				exports[field] = append(exports[field], export{key: key, pos: kv.Key.Pos()})
			}
		})
	}

	// Counters that count but never surface, or surface ambiguously.
	for field, pos := range increments {
		es := exports[field]
		switch {
		case len(es) == 0:
			p.Reportf(pos, "counter %s is incremented but never exported on /debug/vars", field.Name())
		case len(es) > 1:
			sort.Slice(es, func(i, j int) bool { return es[i].pos < es[j].pos })
			p.Reportf(es[1].pos, "counter %s is exported %d times on /debug/vars (first as %q): register each counter exactly once", field.Name(), len(es), es[0].key)
		}
	}

	// Cross-reference the DESIGN.md counter table and identity families.
	design, ok := p.Aux("DESIGN.md")
	if !ok {
		return // fixture without a DESIGN.md stand-in: nothing to cross-check
	}
	table, identities, found := parseCounterTable(design)
	if !found {
		p.Reportf(anchor, "DESIGN.md has no varslint counter table (%s ... %s): document the /debug/vars counters there", countersBegin, countersEnd)
		return
	}
	var sortedExports []export
	for _, es := range exports {
		sortedExports = append(sortedExports, es...)
	}
	sort.Slice(sortedExports, func(i, j int) bool { return sortedExports[i].pos < sortedExports[j].pos })
	for _, e := range sortedExports {
		if !table[e.key] {
			p.Reportf(e.pos, "counter %q is not documented in the DESIGN.md counter table", e.key)
		}
	}
	shell := p.shellKeys()
	for _, id := range identities {
		if id.pkg != p.Pkg.Rel {
			continue
		}
		for _, name := range id.names {
			if !allKeys[name] && !shell[name] {
				p.Reportf(anchor, "DESIGN.md identity %q references %q, which neither %s nor the daemon shell (%s) exports on /debug/vars", id.text, name, p.Pkg.Rel, shellPkg)
			}
		}
	}
}

// varsEntries calls fn for every string-keyed entry of the map[string]any
// composite literals in f: the entries of a /debug/vars document.
func (p *Pass) varsEntries(f *File, fn func(key string, kv *ast.KeyValueExpr)) {
	ast.Inspect(f.AST, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || !p.isStringAnyMap(lit) {
			return true
		}
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if key, ok := stringLit(kv.Key); ok {
					fn(key, kv)
				}
			}
		}
		return true
	})
}

// shellKeys returns the /debug/vars keys the daemon shell exports.
func (p *Pass) shellKeys() map[string]bool {
	keys := map[string]bool{}
	for _, pkg := range p.Mod.Pkgs {
		if pkg.Rel != shellPkg {
			continue
		}
		for _, f := range pkg.Files {
			if !f.Test {
				p.varsEntries(f, func(key string, _ *ast.KeyValueExpr) { keys[key] = true })
			}
		}
	}
	return keys
}

// isStringAnyMap reports whether a composite literal has type
// map[string]any (directly or through a named type).
func (p *Pass) isStringAnyMap(lit *ast.CompositeLit) bool {
	t := p.TypeOf(lit)
	if t == nil {
		return false
	}
	m, ok := t.Underlying().(*types.Map)
	if !ok {
		return false
	}
	kb, ok := m.Key().Underlying().(*types.Basic)
	if !ok || kb.Kind() != types.String {
		return false
	}
	i, ok := m.Elem().Underlying().(*types.Interface)
	return ok && i.Empty()
}

// stringLit unwraps a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	bl, ok := e.(*ast.BasicLit)
	if !ok || bl.Kind != token.STRING {
		return "", false
	}
	return strings.Trim(bl.Value, "`\""), true
}

// identity is one declared counter identity from DESIGN.md.
type identity struct {
	pkg   string
	names []string
	text  string
}

// parseCounterTable extracts the documented counter names and identity
// declarations from the varslint-marked region of DESIGN.md. Counter names
// are the backtick-quoted first column of table rows; identities are lines
// of the form
//
//	identity (internal/httpx): `responses_2xx` + `responses_4xx` + `responses_5xx` == `requests_total`
func parseCounterTable(design []byte) (table map[string]bool, identities []identity, found bool) {
	text := string(design)
	start := strings.Index(text, countersBegin)
	end := strings.Index(text, countersEnd)
	if start < 0 || end < 0 || end < start {
		return nil, nil, false
	}
	table = map[string]bool{}
	for _, line := range strings.Split(text[start+len(countersBegin):end], "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "identity ("); ok {
			pkg, expr, ok := strings.Cut(rest, "):")
			if !ok {
				continue
			}
			id := identity{pkg: strings.TrimSpace(pkg), text: strings.TrimSpace(expr)}
			for _, name := range backtickNames(expr) {
				id.names = append(id.names, name)
			}
			identities = append(identities, id)
			continue
		}
		if strings.HasPrefix(line, "|") {
			for _, name := range backtickNames(line) {
				table[name] = true
				break // first column only: the counter name
			}
		}
	}
	return table, identities, true
}

// backtickNames extracts `quoted` tokens from a line.
func backtickNames(line string) []string {
	var out []string
	for {
		i := strings.IndexByte(line, '`')
		if i < 0 {
			return out
		}
		line = line[i+1:]
		j := strings.IndexByte(line, '`')
		if j < 0 {
			return out
		}
		out = append(out, line[:j])
		line = line[j+1:]
	}
}
