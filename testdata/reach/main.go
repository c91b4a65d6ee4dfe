// Package main is TestReachabilityRules' program: one function per rule
// of the reachability gate.
package main

import "fmt"

type shape interface{ area() int }

type square struct{ side int }

// area is called through shape.
func (s square) area() int { return s.side * s.side }

type circle struct{ r int }

// area is reached by name through shape, though no circle is built.
func (c circle) area() int { return 3 * c.r * c.r }

type celsius int

// String is kept: fmt calls it.
func (c celsius) String() string { return fmt.Sprint(int(c)) }

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
	c := &counter{}
	inc := c.inc
	inc()
	live()
	fmt.Println(s.area(), table, c.n)
}
