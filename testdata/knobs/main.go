// Package main is TestKnobGateRules' program: one field per rule of the
// knob gate, and in params.go one function per rule for parameters.
package main

import "flag"

// Config is a knob struct: its own fields are judged.
type Config struct {
	Assigned  int     // turned by a selector assignment
	Keyed     int     // turned by a composite-literal key
	Flagged   int     // turned by taking its address
	ByDefault int     // written only by DefaultConfig
	Named     string  // DefaultConfig's parameter: its caller turns it
	ByExample int     // written only in example.go
	Allowed   int     // unturned, with an allow entry
	Vague     int     // unturned, with an entry that cites nothing
	Inner     Options // a container: not judged itself
	Plain     plain   // struct-typed but not a knob struct: judged
}

// Options is a knob struct reached through a container.
type Options struct {
	Depth int // unturned
	Width int // turned through the container
}

// PairConfig is a knob struct written only by an unkeyed literal.
type PairConfig struct{ Lo, Hi int }

type plain struct{ n int }

// DefaultConfig's writes turn only the knob it sets from its parameter.
func DefaultConfig(name string) Config {
	c := Config{ByDefault: 1, Named: name, Allowed: 2, Vague: 3, Inner: Options{Depth: 4}}
	c.Assigned = 5
	return c
}

func run(c *Config) Config {
	flag.IntVar(&c.Flagged, "flagged", 0, "")
	c.Assigned = 6
	c.Inner.Width = 8
	return Config{Keyed: 1, Plain: plain{}}
}

func main() {
	c := DefaultConfig("demo")
	run(&c)
	_ = PairConfig{1, 2}
	_ = params(c.Named)
}
