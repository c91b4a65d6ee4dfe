package main

// example stands for a program under examples/: its writes turn nothing.
func example() Config {
	c := DefaultConfig("example")
	c.ByExample = 7
	return c
}
