// Package registry is the repo's one name table: the lifetime models
// and provider markets of package cloud, the fleet schedulers and the
// manager's elastic policies are each a Registry of their own.
//
// A registry is first-come: a name, once registered, means one value
// for the life of the process, because scenario and fleet keys embed
// the name and the planner cache trusts it. Registering a duplicate
// (or empty) name is a programmer error and panics with the offending
// name, rather than returning an error a start-up path could ignore.
// Callers registering user-supplied names (cmd/pland -trace) pre-check
// with Lookup.
//
// Every registry has a default, and the empty name means it: Lookup,
// Resolve and IsDefault all apply that one rule, so no caller codes it
// again.
package registry

import (
	"fmt"
	"sort"
	"sync"
)

// Registry maps names to values of one kind. Builtins register at
// init and some callers register at start-up; reads vastly outnumber
// writes, hence the RWMutex. The zero value is not usable; call New.
type Registry[T any] struct {
	owner, kind string
	def         string
	nameOf      func(T) string
	check       func(T) error

	mu    sync.RWMutex
	items map[string]T
}

// New returns an empty registry. owner and kind name it in errors and
// panics ("cloud", "lifetime model" read as "cloud: unknown lifetime
// model ..."); def is the default name the empty name resolves to;
// nameOf gives a value's registry identity; check, when non-nil,
// vets each value at registration and a non-nil error panics.
func New[T any](owner, kind, def string, nameOf func(T) string, check func(T) error) *Registry[T] {
	return &Registry[T]{owner: owner, kind: kind, def: def, nameOf: nameOf, check: check, items: map[string]T{}}
}

// Register adds v under its name. An empty or already registered name,
// or a value check rejects, panics naming the offender.
func (r *Registry[T]) Register(v T) {
	name := r.nameOf(v)
	if name == "" {
		panic(fmt.Sprintf("%s: %s has an empty name", r.owner, r.kind))
	}
	if r.check != nil {
		if err := r.check(v); err != nil {
			panic(fmt.Sprintf("%s: %s %q: %v", r.owner, r.kind, name, err))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.items[name]; dup {
		panic(fmt.Sprintf("%s: %s %q already registered", r.owner, r.kind, name))
	}
	r.items[name] = v
}

// Resolve applies the empty-name rule: "" is the default name, any
// other name is itself. It is the canonical form keys embed.
func (r *Registry[T]) Resolve(name string) string {
	if name == "" {
		return r.def
	}
	return name
}

// IsDefault reports whether name resolves to the default.
func (r *Registry[T]) IsDefault(name string) bool { return r.Resolve(name) == r.def }

// Lookup resolves a name, the empty string meaning the default.
// Unknown names report the available ones.
func (r *Registry[T]) Lookup(name string) (T, error) {
	name = r.Resolve(name)
	r.mu.RLock()
	v, ok := r.items[name]
	r.mu.RUnlock()
	if !ok {
		return v, fmt.Errorf("%s: unknown %s %q (available: %v)", r.owner, r.kind, name, r.Names())
	}
	return v, nil
}

// Default returns the default value. It panics if the default was
// never registered: builtins register it at init, so only a bug gets
// here.
func (r *Registry[T]) Default() T {
	v, err := r.Lookup(r.def)
	if err != nil {
		panic(err)
	}
	return v
}

// Names lists every registered name, the default first and the rest
// sorted: the order /v1/catalog reports.
func (r *Registry[T]) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.items))
	for name := range r.items {
		if name != r.def {
			names = append(names, name)
		}
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return append([]string{r.def}, names...)
}
