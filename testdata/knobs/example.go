package main

// example stands for a program under examples/: its writes turn no
// field, but its calls are call sites.
func example() Config {
	c := DefaultConfig("example")
	c.ByExample = 7
	c.Named = pad(c.Named, 8)
	return c
}
