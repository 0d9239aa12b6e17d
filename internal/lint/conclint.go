package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Conclint enforces the concurrency-hygiene contract behind the chaos
// suite's guarantees, with go/types resolution:
//
//   - goroutine parenting (internal/* and cmd/*): every `go` statement
//     must hand its goroutine an escape path — a context.Context, a
//     channel it sends on, receives from or selects over, or a
//     sync.WaitGroup it signals. A goroutine with none of those can
//     outlive its parent silently, which is exactly the leak the drain
//     and zero-goroutine-leak chaos checks exist to rule out.
//   - lock discipline (the lockScope packages below):
//     sync.Mutex / sync.RWMutex values must not be copied (parameters,
//     receivers, results, plain assignments, range values), and every
//     Lock()/RLock() must release on all paths: either a matching
//     deferred unlock, or an inline unlock with no return statement
//     between acquisition and release (the hand-over-hand idiom stays
//     legal; leaking the lock on an early return does not).
var Conclint = &Analyzer{
	Name: "conclint",
	Doc:  "goroutines need a ctx/channel/WaitGroup escape path; mutexes must not be copied and must unlock on every path",
	Run:  runConclint,
}

// lockScope lists the packages whose locks guard the serving path; the
// copy and unlock disciplines are enforced there. internal/workload builds
// every probe's instruction streams, internal/placement joined when
// /v1/place put pair co-simulation on the serving path, and internal/httpx
// when the daemons' shared middleware took the access-log mutex.
var lockScope = map[string]bool{
	"internal/server": true, "internal/router": true, "internal/cpu": true,
	"internal/workload": true, "internal/placement": true, "internal/httpx": true,
}

func runConclint(p *Pass) {
	rel := p.Pkg.Rel
	goScope := rel == "internal" || strings.HasPrefix(rel, "internal/") ||
		rel == "cmd" || strings.HasPrefix(rel, "cmd/")
	locks := lockScope[rel]
	if !goScope && !locks {
		return
	}

	// Index the package's function declarations by object, so `go s.run()`
	// can be judged by run's body when it lives in the same package.
	decls := map[types.Object]*ast.FuncDecl{}
	for _, f := range p.Pkg.Files {
		for _, d := range f.AST.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := p.ObjectOf(fd.Name); obj != nil {
					decls[obj] = fd
				}
			}
		}
	}

	for _, f := range p.Pkg.Files {
		if f.Test {
			continue // test goroutines are bounded by the test harness
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if goScope {
					p.checkGoroutine(n, decls)
				}
			case *ast.FuncDecl:
				if locks && n.Body != nil {
					p.checkLockCopies(n)
					p.checkUnlockPaths(n.Body)
				}
			case *ast.AssignStmt:
				if locks {
					p.checkAssignCopiesLock(n)
				}
			case *ast.RangeStmt:
				if locks {
					p.checkRangeCopiesLock(n)
				}
			}
			return true
		})
	}
}

// checkGoroutine reports a `go` statement whose goroutine has no escape
// path. The judged region is the call itself (arguments count: passing a
// ctx or channel parents the goroutine) plus the body of the launched
// function when it is a literal or a same-package declaration.
func (p *Pass) checkGoroutine(g *ast.GoStmt, decls map[types.Object]*ast.FuncDecl) {
	regions := []ast.Node{g.Call}
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		// The literal's body is already inside g.Call.
	case *ast.Ident:
		if fd := decls[p.ObjectOf(fun)]; fd != nil {
			regions = append(regions, fd.Body)
		}
	case *ast.SelectorExpr:
		if fd := decls[p.ObjectOf(fun.Sel)]; fd != nil {
			regions = append(regions, fd.Body)
		}
	}
	for _, r := range regions {
		if p.hasEscapePath(r) {
			return
		}
	}
	p.Reportf(g.Pos(), "goroutine has no escape path (no context, channel operation, or WaitGroup): it can leak past its parent and the drain guarantee")
}

// hasEscapePath scans a region for any of the parenting signals.
func (p *Pass) hasEscapePath(region ast.Node) bool {
	found := false
	ast.Inspect(region, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if _, ok := p.underlying(n.X).(*types.Chan); ok {
				found = true
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				name := sel.Sel.Name
				if (name == "Done" || name == "Add" || name == "Wait") && p.isSyncType(sel.X, "WaitGroup") {
					found = true
				}
			}
		case *ast.Ident:
			if t := p.TypeOf(n); t != nil {
				if t.String() == "context.Context" {
					found = true
				} else if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// isSyncType reports whether an expression's (pointer-stripped) type is
// the named sync package type.
func (p *Pass) isSyncType(e ast.Expr, name string) bool {
	t := p.TypeOf(e)
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
}

// lockPath reports how a type embeds a lock by value: "sync.Mutex" for
// the lock types themselves, or "T (contains sync.Mutex)" for structs
// carrying one; "" when the type holds no lock.
func lockPath(t types.Type, depth int) string {
	if t == nil || depth > 6 {
		return ""
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			switch obj.Name() {
			case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond":
				return "sync." + obj.Name()
			}
		}
		if inner := lockPath(named.Underlying(), depth+1); inner != "" {
			if strings.HasPrefix(inner, "sync.") {
				return obj.Name() + " (contains " + inner + ")"
			}
			return inner
		}
		return ""
	}
	if st, ok := t.(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			if inner := lockPath(st.Field(i).Type(), depth+1); inner != "" {
				return inner
			}
		}
	}
	return ""
}

// checkLockCopies flags function signatures that move a lock by value:
// receivers, parameters and results.
func (p *Pass) checkLockCopies(fn *ast.FuncDecl) {
	report := func(field *ast.Field, role string) {
		t := p.TypeOf(field.Type)
		if _, isPtr := field.Type.(*ast.StarExpr); isPtr {
			return
		}
		if path := lockPath(t, 0); path != "" {
			p.Reportf(field.Pos(), "%s passes %s by value: copying a held lock detaches it from its owner", role, path)
		}
	}
	if fn.Recv != nil {
		for _, f := range fn.Recv.List {
			report(f, "receiver of "+fn.Name.Name)
		}
	}
	if fn.Type.Params != nil {
		for _, f := range fn.Type.Params.List {
			report(f, "parameter of "+fn.Name.Name)
		}
	}
	if fn.Type.Results != nil {
		for _, f := range fn.Type.Results.List {
			report(f, "result of "+fn.Name.Name)
		}
	}
}

// checkAssignCopiesLock flags plain value copies of lock-bearing values:
// `x := s.mu` or `g := *grp`. Fresh composite literals and constructor
// calls are fine — they are how such values are born.
func (p *Pass) checkAssignCopiesLock(assign *ast.AssignStmt) {
	if len(assign.Lhs) != len(assign.Rhs) {
		return
	}
	for i, rhs := range assign.Rhs {
		// Discarding into the blank identifier copies into nothing.
		if id, ok := assign.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		switch rhs.(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
			if path := lockPath(p.TypeOf(rhs), 0); path != "" {
				p.Reportf(assign.Pos(), "assignment copies %s by value: share it through a pointer", path)
			}
		}
	}
}

// checkRangeCopiesLock flags `for _, v := range xs` where the element
// value copies a lock.
func (p *Pass) checkRangeCopiesLock(rng *ast.RangeStmt) {
	if rng.Value == nil {
		return
	}
	if path := lockPath(p.TypeOf(rng.Value), 0); path != "" {
		p.Reportf(rng.Value.Pos(), "range value copies %s per iteration: iterate by index or over pointers", path)
	}
}

// lockCall describes one Lock/RLock or Unlock/RUnlock call site.
type lockCall struct {
	key  string // canonical receiver expression, e.g. "g.mu"
	name string // Lock, RLock, Unlock, RUnlock
	pos  token.Pos
}

// checkUnlockPaths enforces the release discipline inside one function
// body. Nested function literals are separate scopes — except literals
// directly under a defer, whose unlocks count as deferred releases for
// the enclosing body.
func (p *Pass) checkUnlockPaths(body *ast.BlockStmt) {
	var locks, inline []lockCall
	deferred := map[string]bool{}
	var returns []token.Pos

	var scan func(n ast.Node)
	scan = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if n.Pos() != root.Pos() {
					p.checkUnlockPaths(n.Body) // its own scope, checked separately
					return false
				}
			case *ast.DeferStmt:
				if key, name, ok := p.mutexMethod(n.Call); ok {
					deferred[key+"."+name] = true
					return false
				}
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					// defer func() { ... mu.Unlock() ... }(): the literal's
					// unlocks run at function exit, so they are deferred
					// releases of this scope.
					ast.Inspect(lit.Body, func(inner ast.Node) bool {
						if c, ok := inner.(*ast.CallExpr); ok {
							if key, name, ok := p.mutexMethod(c); ok && strings.Contains(name, "Unlock") {
								deferred[key+"."+name] = true
							}
						}
						return true
					})
					return false
				}
			case *ast.ReturnStmt:
				returns = append(returns, n.Pos())
			case *ast.CallExpr:
				if key, name, ok := p.mutexMethod(n); ok {
					call := lockCall{key: key, name: name, pos: n.Pos()}
					if strings.Contains(name, "Unlock") {
						inline = append(inline, call)
					} else {
						locks = append(locks, call)
					}
				}
			}
			return true
		})
	}
	scan(body)

	for _, l := range locks {
		unlockName := "Unlock"
		if l.name == "RLock" {
			unlockName = "RUnlock"
		}
		if deferred[l.key+"."+unlockName] {
			continue
		}
		var release token.Pos
		for _, u := range inline {
			if u.key == l.key && u.name == unlockName && u.pos > l.pos {
				release = u.pos
				break
			}
		}
		if release == token.NoPos {
			p.Reportf(l.pos, "%s.%s() is never released in this function: add defer %s.%s()", l.key, l.name, l.key, unlockName)
			continue
		}
		for _, r := range returns {
			if r > l.pos && r < release {
				p.Reportf(l.pos, "return between %s.%s() and its %s leaks the lock on that path: use defer %s.%s()", l.key, l.name, unlockName, l.key, unlockName)
				break
			}
		}
	}
}

// mutexMethod resolves a call as E.Lock/RLock/Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex receiver and returns E's canonical key.
func (p *Pass) mutexMethod(call *ast.CallExpr) (key, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	if !p.isSyncType(sel.X, "Mutex") && !p.isSyncType(sel.X, "RWMutex") {
		return "", "", false
	}
	key = exprKey(sel.X)
	if key == "" {
		return "", "", false
	}
	return key, sel.Sel.Name, true
}
