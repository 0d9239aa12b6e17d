// Fixture for conclint: goroutine parenting and lock discipline.
package server

import (
	"context"
	"sync"
)

type store struct {
	mu   sync.Mutex
	data map[string]int
}

// Leak: nothing parents the goroutine. // want is on the go line below.
func unparented() {
	go func() { // want conclint "no escape path"
		for i := 0; i < 10; i++ {
			_ = i * i
		}
	}()
}

// Parented by a WaitGroup: clean.
func withWaitGroup(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = 42
	}()
}

// Parented by a context: clean.
func withContext(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
}

// Parented by a channel send: clean.
func withChannel(out chan<- int) {
	go func() {
		out <- 1
	}()
}

func loop() {
	for i := 0; i < 3; i++ {
		_ = i
	}
}

// Leak through a same-package declaration: loop has no escape path either.
func unparentedDecl() {
	go loop() // want conclint "no escape path"
}

// Suppressed leak: the directive stands in for a provably-bounded body.
func suppressedLeak() {
	//lint:ignore conclint body is a bounded pure computation, exits on its own
	go func() {
		_ = 1 + 1
	}()
}

// Unlock discipline.

func (s *store) deferred() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}

// Inline unlock with no return in the window: clean (hand-over-hand shape).
func (s *store) inline(other *store) {
	s.mu.Lock()
	n := len(s.data)
	s.mu.Unlock()
	other.mu.Lock()
	other.data["n"] = n
	other.mu.Unlock()
}

func (s *store) neverReleased() { // want is on the Lock line
	s.mu.Lock() // want conclint "never released in this function"
	s.data["x"] = 1
}

func (s *store) earlyReturnLeak(key string) int {
	s.mu.Lock() // want conclint "return between s.mu.Lock() and its Unlock leaks the lock"
	if v, ok := s.data[key]; ok {
		return v
	}
	s.mu.Unlock()
	return 0
}

// Deferred unlock via a closure counts as a deferred release: clean.
func (s *store) deferredClosure() {
	s.mu.Lock()
	defer func() {
		s.mu.Unlock()
	}()
	s.data["y"] = 2
}

// A nested literal is its own scope: the leak is inside the literal.
func (s *store) nestedLiteral() func() {
	return func() {
		s.mu.Lock() // want conclint "never released in this function"
		s.data["z"] = 3
	}
}
