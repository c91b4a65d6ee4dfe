// Package main is TestReachabilityRules' program: one function per rule
// of the reachability gate.
package main

import "fmt"

type shape interface{ area() int }

type square struct{ side int }

// area is called through shape.
func (s square) area() int { return s.side * s.side }

type circle struct{ r int }

// area is reached through shape, though no circle is built: circle is a
// shape.
func (c circle) area() int { return 3 * c.r * c.r }

type disc struct{ r float64 }

// area shares shape's method name but not its signature: reported.
func (d disc) area() float64 { return 3 * d.r * d.r }

type getter interface{ get() int }

type box[T any] struct{ v T }

// get is reached through getter: box[int] is one.
func (b box[T]) get() T { return b.v }

type ticker struct{ n int }

// fire is reached through a constraint with a type term, by name.
func (t *ticker) fire() { t.n++ }

func tick[T any, P interface {
	*T
	fire()
}]() {
	var v T
	P(&v).fire()
}

type celsius int

// String, Format, MarshalJSON and Error are kept: fmt and encoding/json
// call them through fmt.Stringer, fmt.Formatter, json.Marshaler and
// error.
func (c celsius) String() string                { return fmt.Sprint(int(c)) }
func (c celsius) Format(f fmt.State, verb rune) { fmt.Fprint(f, int(c)) }
func (c celsius) MarshalJSON() ([]byte, error)  { return []byte(c.String()), nil }
func (c celsius) Error() string                 { return "too hot" }

type ints []int

// Len, Less, Swap, Push and Pop are kept: ints is a heap.Interface.
func (s ints) Len() int           { return len(s) }
func (s ints) Less(i, j int) bool { return s[i] < s[j] }
func (s ints) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s *ints) Push(x any)        { *s = append(*s, x.(int)) }
func (s *ints) Pop() any          { x := (*s)[len(*s)-1]; *s = (*s)[:len(*s)-1]; return x }

type bag struct{ n int }

// Len is reported: bag is no sort.Interface.
func (b bag) Len() int { return b.n }

var table = build()

// build is a var initialiser's callee.
func build() []int { return []int{1} }

func init() { register() }

// register is init's callee.
func register() {}

type counter struct{ n int }

// inc is reached as a method value.
func (c *counter) inc() { c.n++ }

// reset is never referenced: reported.
func (c *counter) reset() { c.n = 0 }

// dead is never referenced: reported.
func dead() {}

// allowed is never referenced but has an allowlist entry.
func allowed() {}

// live is called by main, so an allowlist entry for it is stale.
func live() {}

func main() {
	var s shape = square{2}
	var g getter = box[int]{3}
	tick[ticker]()
	c := &counter{}
	inc := c.inc
	inc()
	live()
	fmt.Println(s.area(), g.get(), table, c.n)
}
