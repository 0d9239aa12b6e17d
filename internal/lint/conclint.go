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
//   - lock discipline (the lockScope packages below): every Lock()/RLock()
//     must release on all paths: either a matching deferred unlock, or an
//     inline unlock with no return statement between acquisition and
//     release (the hand-over-hand idiom stays legal; leaking the lock on
//     an early return does not).
//
// Copying a lock-bearing value is go vet's copylocks check, which the lint
// stage of scripts/ci.sh runs on every package.
var Conclint = &Analyzer{
	Name: "conclint",
	Doc:  "goroutines need a ctx/channel/WaitGroup escape path; every Lock/RLock must unlock on every path",
	Run:  runConclint,
}

// lockScope lists the packages whose locks guard the serving path; the
// unlock discipline is enforced there. internal/workload builds
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
					p.checkUnlockPaths(n.Body)
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
