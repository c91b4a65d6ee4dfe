package main

// pad's width is passed 8 at both call sites, one of them in
// example.go: a knob.
func pad(s string, width int) string {
	for len(s) < width {
		s += " "
	}
	return s
}

// scale's factor is turned: its call sites pass 2 and 3.
func scale(x, factor int) int { return x * factor }

// once has one call site, so its constant is no knob.
func once(n int) int { return n + 1 }

// sum is variadic, so it is exempt, though both calls pass 1 first.
func sum(first int, rest ...int) int {
	for _, r := range rest {
		first += r
	}
	return first
}

// listen's addr is a deployment setting, kept by its allow line.
func listen(addr string) string { return addr }

// grow's by is a knob whose allow line cites nothing.
func grow(n, by int) int { return n * by }

// apply's n is turned by a function value, which takes any argument.
func apply(n int) int { return n }

func params(name string) int {
	f := apply
	return len(pad(name, 8)) + scale(1, 2) + scale(2, 3) + once(4) + sum(1, 2) + sum(1, 3) +
		len(listen(":80")+listen(":80")) + grow(1, 2) + grow(3, 2) + apply(1) + apply(1) + f(5)
}
