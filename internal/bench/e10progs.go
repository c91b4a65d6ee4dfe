package bench

// e10Programs is the E10 workload suite, shared between the
// EBPFPipeline experiment and BenchmarkVM so both measure
// exactly the same programs. The sources are part of the golden E10
// table (program names and instruction counts) — do not edit casually.
var e10Programs = []struct {
	name string
	src  string
}{
	{"pass-all", "mov r0, 0\nexit"},
	{"port-filter", `
		ldxh r2, [r1+10]
		mov r0, 0
		jne r2, 22, out
		mov r0, 1
	out:	exit`},
	{"flow-hash", `
		ldxw r2, [r1+0]
		ldxw r3, [r1+4]
		ldxh r4, [r1+8]
		ldxh r5, [r1+10]
		xor r2, r3
		lsh r4, 16
		or r4, r5
		xor r2, r4
		mov r3, r2
		rsh r3, 16
		xor r2, r3
		and r2, 1023
		mov r0, r2
		exit`},
	{"const-heavy", `
		mov r2, 10
		mov r3, 20
		add r2, r3
		mul r2, 4
		mov r4, r2
		sub r4, 100
		mov r0, 0
		jne r4, 20, out
		mov r0, 1
	out:	exit`},
}

// E10CtxBytes is the context size the E10 programs are verified against.
const E10CtxBytes = 20
