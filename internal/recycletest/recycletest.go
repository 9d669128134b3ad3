// Package recycletest checks that a pooled struct's reset leaves it equal
// to a freshly allocated one. Tests of the packages that recycle structs
// (bufpool.Recycler, free lists) use it; nothing else imports it.
package recycletest

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// Keep says how reset keeps a field instead of zeroing it.
type Keep uint8

const (
	// Same: the value survives reset unchanged (a callback bound once
	// per struct, a pointer to the struct itself, or a buffer emptied
	// before the struct retires).
	Same Keep = iota + 1
	// Emptied: a slice or map keeps its backing storage at length 0.
	Emptied
	// Bumped: an incarnation count goes up by one.
	Bumped
)

// Rules lists how reset treats one type.
type Rules[T any] struct {
	// Keep maps a field path — field names from T down, dotted through
	// nested structs ("client.queued") — to how reset keeps it. A rule
	// on a struct field covers everything under it. Every other field
	// must read as in a fresh struct after reset.
	Keep map[string]Keep
	// Prep, when non-nil, runs on the dirtied struct before reset, to
	// set up what reset itself reads.
	Prep func(*T)
	// Samples are values for interface fields: a field gets the first
	// sample that implements its type.
	Samples []any
}

// Check gives every field of a fresh struct a value a fresh struct does
// not have, resets it and requires each field to read as in another
// fresh struct, or as its rule in r says. A field added to T that reset
// neither clears nor is listed for fails the check, and so does a rule
// naming no field.
func Check[T any](t testing.TB, fresh func() *T, reset func(*T), r Rules[T]) {
	t.Helper()
	dirty, want := fresh(), fresh()
	d := reflect.ValueOf(dirty).Elem()
	w := reflect.ValueOf(want).Elem()
	c := checker{t: t, rules: r.Keep, samples: r.Samples, used: map[string]bool{}}
	before := map[string]reflect.Value{}
	c.walk(d, w, "", func(path string, dv, wv reflect.Value) {
		c.dirty(path, dv, wv)
		before[path] = snapshot(dv)
	})
	if r.Prep != nil {
		r.Prep(dirty)
	}
	reset(dirty)
	c.walk(d, w, "", func(path string, dv, wv reflect.Value) {
		c.compare(path, dv, wv, before[path])
	})
	for path := range r.Keep {
		if !c.used[path] {
			t.Errorf("%T: rule for %s names no field", want, path)
		}
	}
}

type checker struct {
	t       testing.TB
	rules   map[string]Keep
	samples []any
	used    map[string]bool
}

// rule returns the rule covering path, from path itself or a struct
// above it.
func (c *checker) rule(path string) Keep {
	for p := path; ; {
		if k, ok := c.rules[p]; ok {
			c.used[p] = true
			return k
		}
		i := strings.LastIndexByte(p, '.')
		if i < 0 {
			return 0
		}
		p = p[:i]
	}
}

// walk calls leaf for every non-struct field of d and w, in step.
func (c *checker) walk(d, w reflect.Value, prefix string, leaf func(path string, dv, wv reflect.Value)) {
	for i := 0; i < d.NumField(); i++ {
		path := prefix + d.Type().Field(i).Name
		dv, wv := settable(d.Field(i)), settable(w.Field(i))
		if dv.Kind() == reflect.Struct {
			c.walk(dv, wv, path+".", leaf)
			continue
		}
		leaf(path, dv, wv)
	}
}

// settable makes an unexported field writable.
func settable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// dirty gives v a value that differs from the fresh one, fresh.
func (c *checker) dirty(path string, v, fresh reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!fresh.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(fresh.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(fresh.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(fresh.Float() + 1)
	case reflect.String:
		v.SetString(fresh.String() + "dirty")
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 4))
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		m.SetMapIndex(reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem())
		v.Set(m)
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value {
			panic("recycletest: dirty callback called")
		}))
	case reflect.Interface:
		for _, s := range c.samples {
			if sv := reflect.ValueOf(s); sv.Type().Implements(v.Type()) {
				v.Set(sv)
				return
			}
		}
		if c.rule(path) != Same {
			c.t.Fatalf("%s: no sample implements %v", path, v.Type())
		}
	default:
		c.t.Fatalf("%s: cannot dirty a %v", path, v.Kind())
	}
}

// snapshot copies what compare needs of v before reset.
func snapshot(v reflect.Value) reflect.Value {
	s := reflect.New(v.Type()).Elem()
	s.Set(v)
	return s
}

// identity is what Same compares for kinds without value equality.
func identity(v reflect.Value) any {
	switch v.Kind() {
	case reflect.Func, reflect.Map, reflect.Pointer, reflect.Slice:
		return [2]uintptr{v.Pointer(), uintptr(lenOf(v))}
	}
	return v.Interface()
}

func lenOf(v reflect.Value) int {
	if v.Kind() == reflect.Map || v.Kind() == reflect.Slice {
		return v.Len()
	}
	return 0
}

func (c *checker) compare(path string, got, want, before reflect.Value) {
	switch c.rule(path) {
	case Same:
		if identity(got) != identity(before) {
			c.t.Errorf("%s: reset changed a kept value", path)
		}
	case Emptied:
		if got.Len() != 0 || got.Pointer() != before.Pointer() {
			c.t.Errorf("%s: reset did not keep the storage at length 0 (len %d)", path, got.Len())
		}
	case Bumped:
		if got.Uint() != before.Uint()+1 {
			c.t.Errorf("%s: reset left %d, want %d", path, got.Uint(), before.Uint()+1)
		}
	default:
		if !reflect.DeepEqual(got.Interface(), want.Interface()) {
			c.t.Errorf("%s: reset left %v, a fresh struct has %v", path, got, want)
		}
	}
}
