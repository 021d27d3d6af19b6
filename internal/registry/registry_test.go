package registry

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

type item struct{ name string }

func newItems(names ...string) *Registry[item] {
	r := New("test", "item", "dflt", func(it item) string { return it.name }, func(it item) error {
		if strings.HasPrefix(it.name, "bad") {
			return errors.New("rejected by check")
		}
		return nil
	})
	for _, n := range names {
		r.Register(item{n})
	}
	return r
}

// panicOf runs f and returns what it panicked with, or "" if it did
// not panic.
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestRegistryContract is the one contract every named registry of
// the repo (lifetime models, providers, schedulers, elastic policies)
// inherits.
func TestRegistryContract(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(r *Registry[item]) error
	}{
		{"default first, then sorted", func(r *Registry[item]) error {
			if got, want := r.Names(), []string{"dflt", "alpha", "mid", "zeta"}; !reflect.DeepEqual(got, want) {
				return fmt.Errorf("Names() = %v, want %v", got, want)
			}
			return nil
		}},
		{"empty name resolves to the default", func(r *Registry[item]) error {
			if v, err := r.Lookup(""); err != nil || v.name != "dflt" {
				return fmt.Errorf(`Lookup("") = %v, %v`, v, err)
			}
			if r.Resolve("") != "dflt" || r.Resolve("zeta") != "zeta" {
				return fmt.Errorf("Resolve: %q, %q", r.Resolve(""), r.Resolve("zeta"))
			}
			if !r.IsDefault("") || !r.IsDefault("dflt") || r.IsDefault("zeta") {
				return fmt.Errorf("IsDefault disagrees with Resolve")
			}
			if r.Default().name != "dflt" {
				return fmt.Errorf("Default() = %v", r.Default())
			}
			return nil
		}},
		{"named lookup", func(r *Registry[item]) error {
			if v, err := r.Lookup("mid"); err != nil || v.name != "mid" {
				return fmt.Errorf(`Lookup("mid") = %v, %v`, v, err)
			}
			return nil
		}},
		{"unknown name lists the available ones", func(r *Registry[item]) error {
			_, err := r.Lookup("nope")
			if want := `test: unknown item "nope" (available: [dflt alpha mid zeta])`; err == nil || err.Error() != want {
				return fmt.Errorf("Lookup(nope) = %v, want %q", err, want)
			}
			return nil
		}},
		{"duplicate name panics naming it", func(r *Registry[item]) error {
			if msg := panicOf(func() { r.Register(item{"mid"}) }); !strings.Contains(msg, `"mid" already registered`) {
				return fmt.Errorf("duplicate panic = %q", msg)
			}
			return nil
		}},
		{"empty name panics", func(r *Registry[item]) error {
			if msg := panicOf(func() { r.Register(item{""}) }); msg != "test: item has an empty name" {
				return fmt.Errorf("empty-name panic = %q", msg)
			}
			return nil
		}},
		{"check rejects, naming the value", func(r *Registry[item]) error {
			if msg := panicOf(func() { r.Register(item{"bad-one"}) }); msg != `test: item "bad-one": rejected by check` {
				return fmt.Errorf("check panic = %q", msg)
			}
			if _, err := r.Lookup("bad-one"); err == nil {
				return fmt.Errorf("a rejected value was registered")
			}
			return nil
		}},
		{"missing default panics on Default", func(*Registry[item]) error {
			if msg := panicOf(func() { newItems("alpha").Default() }); !strings.Contains(msg, `unknown item "dflt"`) {
				return fmt.Errorf("Default() without a default = %q", msg)
			}
			return nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.run(newItems("zeta", "dflt", "mid", "alpha")); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRegistryConcurrentUse registers, looks up and lists from many
// goroutines at once; run under -race it checks the locking.
func TestRegistryConcurrentUse(t *testing.T) {
	r := newItems("dflt")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.Register(item{fmt.Sprintf("g%d-%d", g, i)})
				if _, err := r.Lookup(""); err != nil {
					t.Error(err)
				}
				if _, err := r.Lookup(fmt.Sprintf("g%d-%d", g, i)); err != nil {
					t.Error(err)
				}
				if names := r.Names(); names[0] != "dflt" {
					t.Errorf("Names()[0] = %q", names[0])
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(r.Names()); got != 1+8*50 {
		t.Fatalf("%d names after concurrent registration, want %d", got, 1+8*50)
	}
}
